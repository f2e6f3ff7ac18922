"""Composition of the paper's memory hierarchy (Table 3).

* L1 I-cache: 16 KB direct-mapped, 1-cycle latency
* L1 D-cache: 16 KB 4-way, 1-cycle latency
* L2 unified: 256 KB 4-way, 6-cycle latency
* main memory: fixed latency (not specified in the paper; 60 cycles default,
  a typical value for the era's SimpleScalar configurations)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cache import Cache, CacheGeometry, MainMemory
from .replacement import REPLACEMENT_POLICIES


@dataclass
class MemoryHierarchyConfig:
    """Sizes and latencies of the cache hierarchy."""

    il1_size: int = 16 * 1024
    il1_assoc: int = 1
    il1_latency: int = 1
    dl1_size: int = 16 * 1024
    dl1_assoc: int = 4
    dl1_latency: int = 1
    l2_size: int = 256 * 1024
    l2_assoc: int = 4
    l2_latency: int = 6
    line_size: int = 32
    memory_latency: int = 60
    replacement: str = "lru"

    def validate(self) -> None:
        """Reject non-positive sizes/latencies, an unknown replacement policy
        and a cache geometry the caches cannot be built with, early, with a
        field or cache name in the error."""
        for name in ("il1_size", "dl1_size", "l2_size", "line_size"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("il1_latency", "dl1_latency", "l2_latency", "memory_latency"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if (not isinstance(self.replacement, str)
                or self.replacement.lower() not in REPLACEMENT_POLICIES):
            raise ValueError(f"unknown replacement {self.replacement!r}; "
                             f"known: {tuple(REPLACEMENT_POLICIES)}")
        for cache in ("il1", "dl1", "l2"):
            try:
                CacheGeometry(getattr(self, f"{cache}_size"),
                              getattr(self, f"{cache}_assoc"), self.line_size)
            except ValueError as exc:
                raise ValueError(f"{cache}: {exc}") from None


class MemoryHierarchy:
    """The assembled hierarchy: two L1s sharing a unified L2 and main memory."""

    def __init__(self, config: Optional[MemoryHierarchyConfig] = None) -> None:
        self.config = config or MemoryHierarchyConfig()
        self.config.validate()
        cfg = self.config
        self.memory = MainMemory(latency=cfg.memory_latency)
        self.l2 = Cache("l2", cfg.l2_size, cfg.l2_assoc, cfg.line_size,
                        hit_latency=cfg.l2_latency, replacement=cfg.replacement,
                        next_level=self.memory)
        self.icache = Cache("il1", cfg.il1_size, cfg.il1_assoc, cfg.line_size,
                            hit_latency=cfg.il1_latency,
                            replacement=cfg.replacement, next_level=self.l2)
        self.dcache = Cache("dl1", cfg.dl1_size, cfg.dl1_assoc, cfg.line_size,
                            hit_latency=cfg.dl1_latency,
                            replacement=cfg.replacement, next_level=self.l2)
        # Sequential-fetch fast path: consecutive fetches overwhelmingly hit
        # the line of the previous fetch.  With a direct-mapped I-cache a
        # repeat hit has no replacement state to update, so it reduces to the
        # statistics increments.  Any access to a *different* line takes the
        # full path (which installs the line on a miss, so the remembered
        # line is always resident afterwards).
        self._fetch_line_valid = cfg.il1_assoc == 1
        self._last_fetch_line = -1

    def fetch_access(self, pc: int) -> int:
        """Instruction fetch: latency in cycles to obtain the line holding pc."""
        icache = self.icache
        line = pc // self.config.line_size
        if line == self._last_fetch_line:
            stats = icache.stats
            stats.accesses += 1
            stats.hits += 1
            return icache.hit_latency
        latency = icache.access(pc, is_write=False)
        if self._fetch_line_valid:
            self._last_fetch_line = line
        return latency

    def load_access(self, address: int) -> int:
        """Data load: latency in cycles."""
        return self.dcache.access(address, is_write=False)

    def store_access(self, address: int) -> int:
        """Data store (performed at commit): latency in cycles."""
        return self.dcache.access(address, is_write=True)

    def reset_stats(self) -> None:
        """Zero the statistics of every level (contents are kept)."""
        self.icache.reset_stats()
        self.dcache.reset_stats()
        self.l2.reset_stats()
        self.memory.reset_stats()

    def flush(self) -> None:
        """Empty every cache level (statistics are kept)."""
        self._last_fetch_line = -1
        self.icache.flush()
        self.dcache.flush()
        self.l2.flush()
