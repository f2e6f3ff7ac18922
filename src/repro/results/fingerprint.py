"""Code fingerprint for cache invalidation.

A cached :class:`~repro.core.scenario.ScenarioResult` is only valid as long
as the simulator that produced it is unchanged.  The fingerprint captures
that: the package version plus a SHA-256 digest over every simulation-relevant
source file (the packages a run's behaviour can depend on).  Any edit to the
processor model, the engine, the power models or the workload generators
changes the fingerprint and therefore every cache key, invalidating the whole
store cleanly; edits to the CLI, the report renderers or the results store
itself deliberately do not.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, Optional, Tuple

#: Sub-packages of :mod:`repro` whose source participates in the fingerprint.
#: These are exactly the modules a simulation result can depend on; ``cli``,
#: ``analysis`` and ``results`` are presentation/caching layers and excluded.
SIMULATION_PACKAGES: Tuple[str, ...] = (
    "async_comm", "core", "isa", "memory", "power", "sim", "uarch",
    "workloads",
)

#: Memoized fingerprint -- the source tree does not change under a running
#: process, and sweeps probe the store once per scenario.
_CACHED: Optional[str] = None


def _package_root() -> Path:
    """Directory of the installed :mod:`repro` package."""
    return Path(__file__).resolve().parent.parent


def iter_source_files(root: Optional[Path] = None):
    """Yield the simulation-relevant ``.py`` files in a stable order."""
    if root is None:
        root = _package_root()
    for package in SIMULATION_PACKAGES:
        directory = root / package
        if not directory.is_dir():
            continue
        yield from sorted(directory.rglob("*.py"))


def source_tree_digest(root: Optional[Path] = None) -> str:
    """SHA-256 over (relative path, contents) of every simulation source."""
    if root is None:
        root = _package_root()
    digest = hashlib.sha256()
    for path in iter_source_files(root):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def code_fingerprint(refresh: bool = False) -> str:
    """``<version>:<tree-digest-prefix>`` identifying the current simulator.

    The value is memoized per process; pass ``refresh=True`` to recompute
    (only useful in tests that edit the source tree in place).
    """
    global _CACHED
    if _CACHED is None or refresh:
        from .. import __version__
        _CACHED = f"{__version__}:{source_tree_digest()[:16]}"
    return _CACHED


def fingerprint_details(root: Optional[Path] = None) -> Dict[str, str]:
    """Per-file digests (for debugging which change invalidated the cache)."""
    if root is None:
        root = _package_root()
    return {
        path.relative_to(root).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()[:16]
        for path in iter_source_files(root)
    }
