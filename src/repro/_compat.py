"""Helpers shared by every package: lazy re-exports and an ordered sum.

:func:`lazy_exports` implements PEP 562 re-exports: a package lists which
submodule defines each re-exported name and imports that submodule on first
use, so importing the package loads none of them and a command pays only for
the layers it actually uses.

:func:`ordered_sum` adds floats left to right on every interpreter, which
the built-in ``sum()`` stopped doing in Python 3.12.
"""

from __future__ import annotations

import importlib
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Sequence,
                    Tuple)


def lazy_exports(namespace: Dict[str, Any],
                 exports: Mapping[str, Sequence[str]]
                 ) -> Tuple[List[str], Callable[[str], Any],
                            Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the package ``namespace``.

    ``namespace`` is the package's ``globals()``; ``exports`` maps a
    relative module name (``".scenario"``) to the names it defines.  A
    resolved name is cached in the namespace, so later lookups never reach
    ``__getattr__`` again.
    """
    package = namespace["__name__"]
    origin = {name: module for module, names in exports.items()
              for name in names}

    def __getattr__(name: str) -> Any:
        """Import the submodule defining ``name``; return and cache it."""
        if name not in origin:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(origin[name], package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        """The namespace's names plus every not-yet-resolved export."""
        return sorted(set(namespace) | set(origin))

    return sorted(origin), __getattr__, __dir__


def ordered_sum(values: Iterable[float]) -> float:
    """The sum of ``values``, added one at a time from the left.

    Python 3.12 made the built-in ``sum()`` of floats compensated (Neumaier
    summation), which moves the last bit of some totals.  A result must be
    the same bytes on every interpreter, so each float sum that feeds one
    goes through here and adds exactly as ``sum()`` did up to 3.11.
    """
    total = 0
    for value in values:
        total += value
    return total
