"""Unit tests for caches, replacement policies and the memory hierarchy."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import (Cache, CacheGeometry, FIFOPolicy, LRUPolicy, MainMemory,
                          MemoryHierarchy, MemoryHierarchyConfig, RandomPolicy,
                          make_policy)


def hits(cache, address):
    """Access ``address`` (a read); True when the line was resident."""
    before = cache.stats.hits
    cache.access(address)
    return cache.stats.hits == before + 1


# ------------------------------------------------------------------- geometry
def test_geometry_sets_and_validation():
    geometry = CacheGeometry(16 * 1024, 4, 32)
    assert geometry.num_sets == 128
    with pytest.raises(ValueError):
        CacheGeometry(0, 1, 32)
    with pytest.raises(ValueError):
        CacheGeometry(1000, 3, 32)  # not a multiple


# ------------------------------------------------------------------- policies
def test_lru_policy_evicts_least_recently_used():
    policy = LRUPolicy(2)
    policy.on_access(0)
    policy.on_access(1)
    policy.on_access(0)
    assert policy.victim([True, True]) == 1


def test_fifo_policy_round_robin():
    policy = FIFOPolicy(2)
    policy.on_fill(0)
    assert policy.victim([True, True]) == 1
    policy.on_fill(1)
    assert policy.victim([True, True]) == 0


def test_policies_prefer_invalid_ways():
    for policy in (LRUPolicy(4), FIFOPolicy(4), RandomPolicy(4)):
        assert policy.victim([True, False, True, True]) == 1


def test_make_policy_factory():
    assert isinstance(make_policy("lru", 2), LRUPolicy)
    assert isinstance(make_policy("fifo", 2), FIFOPolicy)
    assert isinstance(make_policy("random", 2), RandomPolicy)
    with pytest.raises(ValueError):
        make_policy("plru", 2)


# --------------------------------------------------------------------- caches
def test_cache_hit_after_miss():
    cache = Cache("l1", 1024, 2, 32, hit_latency=1,
                  next_level=MainMemory(latency=10))
    first = cache.access(0x100)
    second = cache.access(0x100)
    assert first == 11  # miss: hit latency + memory
    assert second == 1
    assert cache.stats.accesses == 2
    assert cache.stats.misses == 1
    assert cache.stats.hit_rate == pytest.approx(0.5)


def test_same_line_different_word_hits():
    cache = Cache("l1", 1024, 1, 32)
    cache.access(0x200)
    assert cache.access(0x21C) == cache.hit_latency
    assert cache.stats.hits == 1


def test_direct_mapped_conflict_eviction():
    cache = Cache("l1", 1024, 1, 32)
    conflicting = 0x100 + 1024  # same index, different tag
    cache.access(0x100)
    cache.access(conflicting)
    assert cache.stats.evictions == 1
    # the newer line hits, the original one is gone
    assert hits(cache, conflicting)
    assert not hits(cache, 0x100)


def test_dirty_writeback_goes_to_next_level():
    memory = MainMemory(latency=5)
    cache = Cache("l1", 1024, 1, 32, next_level=memory)
    cache.access(0x100, is_write=True)
    cache.access(0x100 + 1024)  # evicts the dirty line
    assert cache.stats.writebacks == 1
    assert memory.writes == 1


def test_lru_within_set():
    cache = Cache("l1", 2 * 32, 2, 32)  # one set, two ways
    cache.access(0)       # way A
    cache.access(32)      # way B
    cache.access(0)       # touch A again
    cache.access(64)      # should evict B (LRU)
    assert hits(cache, 0)
    assert not hits(cache, 32)


def test_reset_stats_keeps_contents():
    cache = Cache("l1", 1024, 1, 32)
    cache.access(0x40)
    cache.reset_stats()
    assert cache.stats.accesses == 0
    assert hits(cache, 0x40)


# ------------------------------------------------------------------ hierarchy
def test_hierarchy_matches_table3_defaults():
    hierarchy = MemoryHierarchy()
    assert hierarchy.icache.geometry.size_bytes == 16 * 1024
    assert hierarchy.icache.geometry.associativity == 1
    assert hierarchy.dcache.geometry.associativity == 4
    assert hierarchy.l2.geometry.size_bytes == 256 * 1024
    assert hierarchy.l2.hit_latency == 6


def test_hierarchy_miss_latency_composition():
    config = MemoryHierarchyConfig(memory_latency=50)
    hierarchy = MemoryHierarchy(config)
    cold = hierarchy.load_access(0x8000)
    warm = hierarchy.load_access(0x8000)
    assert cold == 1 + 6 + 50
    assert warm == 1
    # the line is now also resident in L2: once four conflicting loads evict
    # it from its 4-way L1 set (they map to other L2 sets), it hits in L2
    set_stride = hierarchy.dcache.geometry.num_sets * config.line_size
    for way in range(1, 5):
        hierarchy.load_access(0x8000 + way * set_stride)
    assert hierarchy.load_access(0x8000) == 1 + 6


def test_hierarchy_config_validation():
    with pytest.raises(ValueError):
        MemoryHierarchyConfig(il1_size=0).validate()
    with pytest.raises(ValueError):
        MemoryHierarchyConfig(memory_latency=-1).validate()


def test_store_accesses_are_counted_separately():
    hierarchy = MemoryHierarchy()
    hierarchy.store_access(0x2000)
    assert hierarchy.dcache.stats.accesses == 1


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=200))
def test_property_cache_counters_consistent(addresses):
    cache = Cache("l1", 4 * 1024, 2, 32, next_level=MainMemory(latency=10))
    for address in addresses:
        cache.access(address)
    stats = cache.stats
    assert stats.hits + stats.misses == stats.accesses == len(addresses)
    assert 0.0 <= stats.miss_rate <= 1.0
    # re-accessing the most recent address must hit
    hits_before = stats.hits
    cache.access(addresses[-1])
    assert cache.stats.hits >= hits_before + 1
