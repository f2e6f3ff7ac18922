"""Interpreter shims shared by every package (Python 3.9 and later).

* :data:`SLOTS` -- slotted dataclasses where the interpreter has them.
* :func:`lazy_exports` -- lazy package re-exports (PEP 562): a package lists
  which submodule defines each re-exported name and imports that submodule
  on first use, so importing the package loads none of them and a command
  pays only for the layers it actually uses.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

#: ``@dataclass(**SLOTS)`` -- slotted dataclasses where the interpreter has
#: them (``slots=`` is new in Python 3.10); plain dataclasses on 3.9.
SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}


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
