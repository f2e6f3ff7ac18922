"""Unit tests for the mixed-clock FIFO, synchronizers and pausible clocks (§3.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.async_comm.fifo import MixedClockFifo
from repro.async_comm.pausible import PausibleClockModel
from repro.async_comm.synchronizer import (Synchronizer,
                                           synchronization_failure_probability)
from repro.sim.clock import Clock
from repro.sim.hotcore import sync_visible_at


def make_fifo(capacity=4, producer_period=1.0, consumer_period=1.0,
              consumer_phase=0.0, consumer_sync=1, producer_sync=1):
    return MixedClockFifo(
        "test", capacity,
        producer_clock=Clock("prod", producer_period),
        consumer_clock=Clock("cons", consumer_period, phase=consumer_phase),
        consumer_sync=consumer_sync, producer_sync=producer_sync,
    )


# ----------------------------------------------------------------- synchronizer
def test_synchronizer_latency_and_observation_time():
    sync = Synchronizer(Clock("rx", period=2.0, phase=0.0), depth=2)
    assert sync.latency() == pytest.approx(4.0)
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


def test_failure_probability_is_tiny_but_nonzero():
    probability = synchronization_failure_probability(
        clock_frequency_ghz=1.0, data_rate_ghz=1.0, resolution_time_ns=0.5)
    assert 0.0 <= probability < 1e-9


# ------------------------------------------------------------------------ FIFO
def test_data_not_visible_until_synchronized():
    fifo = make_fifo(consumer_sync=1)
    fifo.push("x", 0.25)
    # next consumer edge after 0.25 is t=1.0; +1 sync cycle -> visible at 2.0
    assert not fifo.can_pop(1.0)
    assert not fifo.can_pop(1.9)
    assert fifo.can_pop(2.0)
    assert fifo.pop(2.0) == "x"
    assert fifo.last_pop_wait == pytest.approx(1.75)


def test_fifo_preserves_order():
    fifo = make_fifo(capacity=8)
    for index in range(5):
        fifo.push(index, float(index))
    values = []
    time = 10.0
    while fifo.can_pop(time):
        values.append(fifo.pop(time))
    assert values == [0, 1, 2, 3, 4]


def test_freed_space_reaches_producer_late():
    fifo = make_fifo(capacity=2, producer_sync=1)
    fifo.push("a", 0.0)
    fifo.push("b", 0.0)
    assert not fifo.can_push(0.5)
    fifo.pop(5.0)
    # the freed slot is synchronized back into the producer clock: the next
    # producer edge after t=5 is 6.0, plus one producer cycle -> 7.0
    assert fifo.apparent_occupancy(5.1) == 2
    assert not fifo.can_push(6.9)
    assert fifo.can_push(7.0)


def test_push_into_apparently_full_fifo_raises():
    fifo = make_fifo(capacity=1)
    fifo.push(1, 0.0)
    with pytest.raises(OverflowError):
        fifo.push(2, 0.0)


def test_pop_before_visibility_raises():
    fifo = make_fifo()
    fifo.push(1, 0.0)
    with pytest.raises(LookupError):
        fifo.pop(0.5)


def test_flush_returns_slots_and_counts():
    fifo = make_fifo(capacity=8)
    for index in range(4):
        fifo.push(index, 0.0)
    assert fifo.flush(lambda v: v >= 2) == 2
    assert fifo.items() == [0, 1]
    assert fifo.flush() == 2
    assert fifo.occupancy == 0


def test_steady_state_latency_reflects_consumer_clock():
    fast_consumer = make_fifo(consumer_period=0.5)
    slow_consumer = make_fifo(consumer_period=2.0)
    assert fast_consumer.steady_state_latency < slow_consumer.steady_state_latency


def test_mismatched_clock_periods():
    """Producer at 1 ns, consumer at 3 ns: items become visible on consumer edges."""
    fifo = make_fifo(capacity=16, producer_period=1.0, consumer_period=3.0,
                     consumer_sync=0)
    for index in range(6):
        fifo.push(index, float(index))
    # at t=3 the consumer's first edge after pushes at t=0,1,2 has passed
    visible = 0
    while fifo.can_pop(3.0):
        fifo.pop(3.0)
        visible += 1
    assert visible == 3


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
    out = []
    while fifo.can_pop(deadline):
        out.append(fifo.pop(deadline))
    assert out == values


# ---------------------------------------------------- synchronizer mapping
def test_synchronizer_visible_at_matches_sync_visible_at():
    fifo = MixedClockFifo(
        "probe", 64,
        producer_clock=Clock("prod", 0.8, phase=0.1),
        consumer_clock=Clock("cons", 1.1, phase=0.3),
        producer_sync=1, consumer_sync=1)
    sides = {
        "data": (fifo._data_phase, fifo._data_period, fifo._data_latency),
        "space": (fifo._space_phase, fifo._space_period, fifo._space_latency),
    }
    for step in range(40):
        time = step * 0.41
        for side, parameters in sides.items():
            assert (fifo.synchronizer_visible_at(time, side)
                    == sync_visible_at(time, *parameters))
        # the inlined fast paths agree with the shared helper bit for bit
        fifo.push(step, time)
        assert fifo._entries[-1][2] == fifo.synchronizer_visible_at(time,
                                                                    "data")
        assert (fifo._space_visible_at(time)
                == fifo.synchronizer_visible_at(time, "space"))
    with pytest.raises(ValueError, match="unknown synchronizer side"):
        fifo.synchronizer_visible_at(1.0, "sideways")


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
    assert fifo.occupancy == 0


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
    assert bulk.occupancy == loop.occupancy
    # the producer-side view (synchronized freed space) must agree too
    probe = drain_time + 10.0 * producer_period
    assert bulk.apparent_occupancy(probe) == loop.apparent_occupancy(probe)
    assert bulk.can_push(drain_time) == loop.can_push(drain_time)


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
