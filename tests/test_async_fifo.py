"""Unit tests for the mixed-clock FIFO, synchronizers and pausible clocks (§3.2)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.async_comm.fifo import MixedClockFifo
from repro.async_comm.pausible import PausibleClockModel
from repro.async_comm.synchronizer import (Synchronizer,
                                           synchronization_failure_probability)
from repro.sim.clock import Clock


def make_fifo(capacity=4, producer_period=1.0, consumer_period=1.0,
              consumer_phase=0.0, consumer_sync=1, producer_sync=1):
    return MixedClockFifo(
        "test", capacity,
        producer_clock=Clock("prod", producer_period),
        consumer_clock=Clock("cons", consumer_period, phase=consumer_phase),
        consumer_sync=consumer_sync, producer_sync=producer_sync,
    )


def drain(fifo, time):
    """Every item visible at ``time``, popped one by one as a consumer does."""
    items = []
    while (item := fifo.pop_ready(time)) is not None:
        items.append(item)
    return items


# ----------------------------------------------------------------- synchronizer
def test_synchronizer_latency_and_observation_time():
    sync = Synchronizer(Clock("rx", period=2.0, phase=0.0), depth=2)
    # produced at t=0.5 -> captured at the next edge (t=2.0) -> +2 cycles
    assert sync.observable_at(0.5) == pytest.approx(6.0)
    # produced exactly on an edge misses it (setup time)
    assert sync.observable_at(2.0) == pytest.approx(8.0)


def test_synchronizer_depth_zero_is_next_edge():
    sync = Synchronizer(Clock("rx", period=1.0), depth=0)
    assert sync.observable_at(0.3) == pytest.approx(1.0)


def test_synchronizer_rejects_negative_depth():
    with pytest.raises(ValueError):
        Synchronizer(Clock("rx", period=1.0), depth=-1)
    for depths in ({"consumer_sync": -1}, {"producer_sync": -1}):
        with pytest.raises(ValueError):
            make_fifo(**depths)


def test_failure_probability_is_tiny_but_nonzero():
    probability = synchronization_failure_probability(
        clock_frequency_ghz=1.0, data_rate_ghz=1.0, resolution_time_ns=0.5)
    assert 0.0 <= probability < 1e-9


# ------------------------------------------------------------------------ FIFO
def test_data_not_visible_until_synchronized():
    fifo = make_fifo(consumer_sync=1)
    fifo.push("x", 0.25)
    # next consumer edge after 0.25 is t=1.0; +1 sync cycle -> visible at 2.0
    assert fifo.pop_ready(1.0) is None
    assert fifo.pop_ready(1.9) is None
    assert fifo.pop_ready(2.0) == "x"
    assert fifo.last_pop_wait == pytest.approx(1.75)


def test_fifo_preserves_order():
    fifo = make_fifo(capacity=8)
    for index in range(5):
        fifo.push(index, float(index))
    assert drain(fifo, 10.0) == [0, 1, 2, 3, 4]


def test_freed_space_reaches_producer_late():
    fifo = make_fifo(capacity=2, producer_sync=1)
    fifo.push("a", 0.0)
    fifo.push("b", 0.0)
    assert not fifo.can_push(0.5)
    assert fifo.pop_ready(5.0) == "a"
    # the freed slot is synchronized back into the producer clock: the next
    # producer edge after t=5 is 6.0, plus one producer cycle -> 7.0
    assert fifo.free_slots(5.1) == 0
    assert not fifo.can_push(6.9)
    assert fifo.can_push(7.0)


def test_push_into_apparently_full_fifo_raises():
    fifo = make_fifo(capacity=1)
    fifo.push(1, 0.0)
    with pytest.raises(OverflowError):
        fifo.push(2, 0.0)


def test_nothing_pops_before_visibility():
    fifo = make_fifo()
    fifo.push(1, 0.0)
    assert fifo.pop_ready(0.5) is None
    assert fifo.pop_bulk(0.5, 4) == []
    assert fifo.pop_count == 0


def test_flush_returns_slots_and_counts():
    fifo = make_fifo(capacity=8)
    for index in range(4):
        fifo.push(index, 0.0)
    assert fifo.flush(lambda v: v >= 2) == 2
    assert [entry[0] for entry in fifo._entries] == [0, 1]
    assert fifo.flush() == 2
    assert not fifo._entries
    assert fifo.free_slots(0.0) == 8          # flushed slots return at once


def test_steady_state_latency_reflects_consumer_clock():
    # pushed at t=0: visible one consumer edge plus one sync cycle later
    fast_consumer = make_fifo(consumer_period=0.5)
    slow_consumer = make_fifo(consumer_period=2.0)
    for fifo in (fast_consumer, slow_consumer):
        fifo.push("x", 0.0)
    assert fast_consumer.pop_ready(1.0) == "x"
    assert slow_consumer.pop_ready(1.0) is None
    assert slow_consumer.pop_ready(4.0) == "x"


def test_mismatched_clock_periods():
    """Producer at 1 ns, consumer at 3 ns: items become visible on consumer edges."""
    fifo = make_fifo(capacity=16, producer_period=1.0, consumer_period=3.0,
                     consumer_sync=0)
    for index in range(6):
        fifo.push(index, float(index))
    # at t=3 the consumer's first edge after pushes at t=0,1,2 has passed
    assert drain(fifo, 3.0) == [0, 1, 2]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=20),
       st.floats(min_value=0.3, max_value=3.0, allow_nan=False),
       st.floats(min_value=0.3, max_value=3.0, allow_nan=False))
def test_property_fifo_never_loses_or_reorders(values, producer_period, consumer_period):
    fifo = make_fifo(capacity=len(values), producer_period=producer_period,
                     consumer_period=consumer_period)
    for index, value in enumerate(values):
        fifo.push(value, index * producer_period)
    deadline = (len(values) + 10) * (producer_period + consumer_period)
    assert drain(fifo, deadline) == values


# ---------------------------------------------------- synchronizer mapping
def test_fifo_fast_paths_match_the_synchronizer():
    """Synchronizer.observable_at is the reference for the inlined mapping.

    Over random clock pairs and sync depths 0-3, every push (``push`` and
    ``push_granted``) must make its entry consumer-visible exactly when the
    empty-flag synchronizer says, and every freed slot must reach the
    producer exactly when the full-flag synchronizer says, float for float.
    """
    rng = random.Random(5)
    pushes = 0
    for _ in range(300):
        producer_clock = Clock("prod", rng.uniform(0.3, 3.0),
                               phase=rng.uniform(0.0, 2.0))
        consumer_clock = Clock("cons", rng.uniform(0.3, 3.0),
                               phase=rng.uniform(0.0, 2.0))
        consumer_sync = rng.randrange(4)
        producer_sync = rng.randrange(4)
        fifo = MixedClockFifo("probe", 64, producer_clock, consumer_clock,
                              consumer_sync=consumer_sync,
                              producer_sync=producer_sync)
        data = Synchronizer(consumer_clock, depth=consumer_sync)
        space = Synchronizer(producer_clock, depth=producer_sync)
        time = 0.0
        for step in range(60):
            # repeated instants exercise the same-cycle mapping caches
            if rng.random() < 0.7:
                time += rng.uniform(0.0, 1.5)
            if step % 2:
                fifo.push(step, time)
            else:
                assert fifo.can_push(time)
                fifo.push_granted(step, time)
            assert fifo._entries[-1][2] == data.observable_at(time)
            assert fifo._space_visible_at(time) == space.observable_at(time)
            pushes += 1
    assert pushes == 18_000


# ------------------------------------------------------------------- pop_bulk
def test_fifo_pop_bulk_respects_visibility():
    fifo = make_fifo(capacity=8)
    for i in range(4):
        fifo.push(i, float(i))          # pushed at t=0..3
    # nothing is visible before the first synchronized consumer edge
    assert fifo.pop_bulk(0.5, 4) == []
    # at t=10 everything is visible; drain in two bounded batches
    first = fifo.pop_bulk(10.0, 2)
    assert [item for item, _ in first] == [0, 1]
    second = fifo.pop_bulk(10.0, 10)
    assert [item for item, _ in second] == [2, 3]
    assert fifo.pop_count == 4
    assert not fifo._entries


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=20),
       st.floats(min_value=0.3, max_value=3.0, allow_nan=False),
       st.floats(min_value=0.3, max_value=3.0, allow_nan=False),
       st.integers(min_value=1, max_value=6),
       st.floats(min_value=0.0, max_value=40.0, allow_nan=False))
def test_property_fifo_pop_bulk_equals_repeated_pop_ready(
        values, producer_period, consumer_period, limit, drain_time):
    """Bulk drain must match a pop_ready loop: items, waits and stats."""
    bulk = make_fifo(capacity=len(values), producer_period=producer_period,
                     consumer_period=consumer_period)
    loop = make_fifo(capacity=len(values), producer_period=producer_period,
                     consumer_period=consumer_period)
    for index, value in enumerate(values):
        bulk.push(value, index * producer_period)
        loop.push(value, index * producer_period)
    batch = bulk.pop_bulk(drain_time, limit)
    expected = []
    for _ in range(limit):
        item = loop.pop_ready(drain_time)
        if item is None:
            break
        expected.append((item, loop.last_pop_wait))
    assert batch == expected
    assert bulk.pop_count == loop.pop_count
    assert bulk.total_wait == loop.total_wait
    assert len(bulk._entries) == len(loop._entries)
    # the producer-side view (synchronized freed space) must agree too
    assert list(bulk._pending_space) == list(loop._pending_space)
    assert bulk.can_push(drain_time) == loop.can_push(drain_time)
    probe = drain_time + 10.0 * producer_period
    assert bulk.free_slots(probe) == loop.free_slots(probe)


# -------------------------------------------------------------- pausible clocks
def test_pausible_clock_stretches_with_communication_rate():
    model = PausibleClockModel(nominal_period=1.0, stretch_per_transaction=0.6)
    assert model.effective_period(0.0) == pytest.approx(1.0)
    assert model.effective_period(1.0) == pytest.approx(1.6)
    assert model.slowdown(1.0) == pytest.approx(1.6)
    assert model.effective_frequency(1.0) == pytest.approx(1.0 / 1.6)


def test_pausible_clock_validation():
    with pytest.raises(ValueError):
        PausibleClockModel(nominal_period=0.0, stretch_per_transaction=0.1)
    with pytest.raises(ValueError):
        PausibleClockModel(nominal_period=1.0, stretch_per_transaction=-1.0)
    model = PausibleClockModel(nominal_period=1.0, stretch_per_transaction=0.5)
    with pytest.raises(ValueError):
        model.effective_period(-0.1)
