"""Unit tests for same-domain pipeline queues (SyncQueue)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.channel import SyncQueue
from test_wakeup_waiters import make_instr, make_unit


def test_push_pop_order_and_stats():
    queue = SyncQueue("q", capacity=4)
    queue.push("a", 0.0)
    queue.push("b", 1.0)
    assert queue.occupancy == 2
    assert queue.peek(2.0) == "a"
    assert queue.pop(2.0) == "a"
    assert queue.last_pop_wait == pytest.approx(2.0)
    assert queue.pop(3.0) == "b"
    assert queue.pop_count == 2
    assert queue.push_count == 2
    assert queue.mean_wait == pytest.approx(2.0)


def test_capacity_enforced():
    queue = SyncQueue("q", capacity=2)
    queue.push(1, 0.0)
    queue.push(2, 0.0)
    assert not queue.can_push(0.0)
    with pytest.raises(OverflowError):
        queue.push(3, 0.0)


def test_pop_empty_raises():
    queue = SyncQueue("q", capacity=2)
    assert not queue.can_pop(0.0)
    with pytest.raises(LookupError):
        queue.pop(0.0)
    with pytest.raises(LookupError):
        queue.peek(0.0)


def test_invalid_capacity_rejected():
    with pytest.raises(ValueError):
        SyncQueue("q", capacity=0)


def test_flush_all_and_predicate():
    queue = SyncQueue("q", capacity=8)
    for value in range(6):
        queue.push(value, 0.0)
    dropped = queue.flush(lambda v: v >= 3)
    assert dropped == 3
    assert queue.items() == [0, 1, 2]
    assert queue.flush() == 3
    assert queue.occupancy == 0
    assert queue.flush_count == 6


def test_occupancy_sampling():
    # a one-entry window leaves the rest of a dispatch group in the channel,
    # which the consuming cluster samples once per edge
    unit, _, regfile = make_unit(capacity=1)
    queue = unit.input_channel
    unit.clock_edge(0, 0.0)                    # empty: a deferred idle sample
    for _ in range(3):
        waiting = make_instr()
        waiting.phys_sources = (regfile.allocate(for_fp=False),)
        queue.push(waiting, 0.0)
    unit.clock_edge(1, 1.0)
    unit.clock_edge(2, 2.0)
    unit.flush_samples()
    assert queue.occupancy_samples == 3
    assert queue.mean_occupancy == pytest.approx(4 / 3)


def test_full_stall_recording():
    queue = SyncQueue("q", capacity=1)
    queue.push(1, 0.0)
    queue.record_full_stall()
    queue.record_full_stall()
    assert queue.full_stall_count == 2


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(), min_size=0, max_size=30))
def test_property_fifo_order_preserved(values):
    queue = SyncQueue("q", capacity=max(1, len(values)))
    for i, value in enumerate(values):
        queue.push(value, float(i))
    popped = [queue.pop(100.0) for _ in range(len(values))]
    assert popped == values


# ------------------------------------------------------------------- pop_bulk
def test_pop_bulk_drains_in_order_with_waits():
    queue = SyncQueue("q", capacity=8)
    for i in range(5):
        queue.push(i, float(i))
    batch = queue.pop_bulk(10.0, 3)
    assert [item for item, _ in batch] == [0, 1, 2]
    assert [wait for _, wait in batch] == pytest.approx([10.0, 9.0, 8.0])
    assert queue.pop_count == 3
    assert queue.last_pop_wait == pytest.approx(8.0)
    assert queue.occupancy == 2


def test_pop_bulk_empty_and_limit_handling():
    queue = SyncQueue("q", capacity=4)
    assert queue.pop_bulk(0.0, 4) == []
    queue.push("x", 0.0)
    batch = queue.pop_bulk(1.0, 10)   # limit larger than occupancy
    assert [item for item, _ in batch] == ["x"]
    assert queue.occupancy == 0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(), min_size=0, max_size=30),
       st.integers(min_value=1, max_value=8))
def test_property_pop_bulk_equals_repeated_pop_ready(values, limit):
    """pop_bulk must match a pop_ready loop item-for-item and stat-for-stat."""
    bulk = SyncQueue("bulk", capacity=max(1, len(values)))
    loop = SyncQueue("loop", capacity=max(1, len(values)))
    for i, value in enumerate(values):
        bulk.push(value, float(i))
        loop.push(value, float(i))
    batch = bulk.pop_bulk(50.0, limit)
    expected = []
    for _ in range(limit):
        item = loop.pop_ready(50.0)
        if item is None:
            break
        expected.append((item, loop.last_pop_wait))
    assert batch == expected
    assert bulk.pop_count == loop.pop_count
    assert bulk.total_wait == loop.total_wait
    assert bulk.last_pop_wait == loop.last_pop_wait or not expected
    assert bulk.items() == loop.items()
