"""Set-associative cache timing model.

Models the three caches of Table 3:

* 16 KB direct-mapped L1 instruction cache, 1-cycle latency,
* 16 KB 4-way L1 data cache, 1-cycle latency,
* 256 KB 4-way unified L2, 6-cycle latency,

backed by a fixed-latency main memory.  The model is a *timing* model: no data
is stored, only tags, so an access returns the number of cycles (of the cache's
owning clock domain) it takes to obtain the line.  Accesses also count toward
the Wattch-style power accounting (each access charges the array's per-access
energy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .replacement import ReplacementPolicy, make_policy


@dataclass
class CacheStats:
    """Hit/miss counters for one cache."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def miss_rate(self) -> float:
        """Misses per access (0.0 before any access)."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    @property
    def hit_rate(self) -> float:
        """Hits per access (0.0 before any access)."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses


@dataclass
class CacheGeometry:
    """Size/shape parameters of a cache."""

    size_bytes: int
    associativity: int
    line_size: int = 32

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.associativity <= 0 or self.line_size <= 0:
            raise ValueError("cache geometry values must be positive")
        if self.size_bytes % (self.associativity * self.line_size) != 0:
            raise ValueError(
                "cache size must be a multiple of associativity * line size")

    @property
    def num_sets(self) -> int:
        """Number of sets implied by size, line size and associativity."""
        return self.size_bytes // (self.associativity * self.line_size)


class _CacheSet:
    """Tags and replacement state for one set."""

    __slots__ = ("tags", "valid", "dirty", "policy")

    def __init__(self, associativity: int, policy: ReplacementPolicy) -> None:
        self.tags: List[Optional[int]] = [None] * associativity
        self.valid: List[bool] = [False] * associativity
        self.dirty: List[bool] = [False] * associativity
        self.policy = policy

    def lookup(self, tag: int) -> Optional[int]:
        valid = self.valid
        for way, stored in enumerate(self.tags):
            if stored == tag and valid[way]:
                return way
        return None


class Cache:
    """A single level of set-associative cache."""

    def __init__(
        self,
        name: str,
        size_bytes: int,
        associativity: int,
        line_size: int = 32,
        hit_latency: int = 1,
        replacement: str = "lru",
        next_level: Optional["MemoryLevel"] = None,
        write_allocate: bool = True,
    ) -> None:
        self.name = name
        self.geometry = CacheGeometry(size_bytes, associativity, line_size)
        self.hit_latency = hit_latency
        self.next_level = next_level
        self.write_allocate = write_allocate
        self.stats = CacheStats()
        self._replacement_name = replacement
        self._sets: Dict[int, _CacheSet] = {}
        # addressing constants hoisted off the geometry properties
        self._line_size = self.geometry.line_size
        self._num_sets = self.geometry.num_sets
        self._assoc = self.geometry.associativity

    # ------------------------------------------------------------ addressing
    def _index_and_tag(self, address: int) -> tuple:
        line = address // self._line_size
        num_sets = self._num_sets
        return line % num_sets, line // num_sets

    def _set_for(self, index: int) -> _CacheSet:
        cache_set = self._sets.get(index)
        if cache_set is None:
            policy = make_policy(self._replacement_name,
                                 self.geometry.associativity, seed=index)
            cache_set = _CacheSet(self.geometry.associativity, policy)
            self._sets[index] = cache_set
        return cache_set

    # --------------------------------------------------------------- access
    def access(self, address: int, is_write: bool = False) -> int:
        """Access ``address``; returns total latency in cycles.

        On a miss the line is fetched from the next level (whose latency is
        added) and installed; a dirty victim adds a writeback.  The hit path
        (one access per fetch cycle plus every load/store) is fully inlined.
        """
        stats = self.stats
        stats.accesses += 1
        line = address // self._line_size
        num_sets = self._num_sets
        index = line % num_sets
        tag = line // num_sets
        cache_set = self._sets.get(index)
        if cache_set is None:
            cache_set = self._set_for(index)
        tags = cache_set.tags
        valid = cache_set.valid
        for way in range(self._assoc):
            if tags[way] == tag and valid[way]:
                stats.hits += 1
                if self._assoc > 1:
                    # single-way sets have no replacement state to update
                    cache_set.policy.on_access(way)
                if is_write:
                    cache_set.dirty[way] = True
                return self.hit_latency

        # miss
        self.stats.misses += 1
        miss_latency = self.hit_latency
        if self.next_level is not None:
            miss_latency += self.next_level.access(address, is_write=False)
        if is_write and not self.write_allocate:
            if self.next_level is not None:
                # write-through of the miss, no fill
                return miss_latency
            return miss_latency
        victim = cache_set.policy.victim(cache_set.valid)
        if cache_set.valid[victim]:
            self.stats.evictions += 1
            if cache_set.dirty[victim]:
                self.stats.writebacks += 1
                if self.next_level is not None:
                    self.next_level.access(
                        self._reconstruct_address(index, cache_set.tags[victim]),
                        is_write=True)
        cache_set.tags[victim] = tag
        cache_set.valid[victim] = True
        cache_set.dirty[victim] = bool(is_write)
        cache_set.policy.on_fill(victim)
        return miss_latency

    def probe(self, address: int) -> bool:
        """Non-destructive lookup: True when the line is present."""
        index, tag = self._index_and_tag(address)
        cache_set = self._sets.get(index)
        if cache_set is None:
            return False
        return cache_set.lookup(tag) is not None

    def _reconstruct_address(self, index: int, tag: int) -> int:
        line = tag * self.geometry.num_sets + index
        return line * self.geometry.line_size

    def flush(self) -> None:
        """Invalidate every line (used between benchmark runs)."""
        self._sets.clear()

    def reset_stats(self) -> None:
        """Zero the hit/miss statistics (cache contents are kept)."""
        self.stats = CacheStats()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        g = self.geometry
        return (f"Cache({self.name!r}, {g.size_bytes // 1024}KB, "
                f"{g.associativity}-way, {g.line_size}B lines, "
                f"{self.hit_latency}-cycle)")


class MainMemory:
    """Fixed-latency main memory behind the L2."""

    def __init__(self, latency: int = 50, name: str = "memory") -> None:
        if latency < 0:
            raise ValueError("memory latency must be non-negative")
        self.name = name
        self.latency = latency
        self.accesses = 0
        self.reads = 0
        self.writes = 0

    def access(self, address: int, is_write: bool = False) -> int:
        """Access main memory; returns the fixed memory latency in cycles."""
        self.accesses += 1
        if is_write:
            self.writes += 1
        else:
            self.reads += 1
        return self.latency

    def reset_stats(self) -> None:
        """Zero the access counters."""
        self.accesses = 0
        self.reads = 0
        self.writes = 0


#: Anything with an ``access(address, is_write) -> latency`` method.
MemoryLevel = object
