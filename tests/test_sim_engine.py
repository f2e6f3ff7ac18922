"""Unit tests for the event-driven simulation engine (paper Section 4.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationEngine
from repro.sim.event import SimulationError


def test_events_fire_in_time_order():
    engine = SimulationEngine()
    order = []
    engine.schedule(3.0, lambda _: order.append("c"))
    engine.schedule(1.0, lambda _: order.append("a"))
    engine.schedule(2.0, lambda _: order.append("b"))
    engine.run()
    assert order == ["a", "b", "c"]
    assert engine.now == 3.0
    assert engine.events_processed == 3


def test_priority_breaks_ties_at_same_time():
    engine = SimulationEngine()
    order = []
    engine.schedule(1.0, lambda _: order.append("low"), priority=5)
    engine.schedule(1.0, lambda _: order.append("high"), priority=0)
    engine.run()
    assert order == ["high", "low"]


def test_equal_time_and_priority_preserves_insertion_order():
    engine = SimulationEngine()
    order = []
    for index in range(10):
        engine.schedule(1.0, lambda _, i=index: order.append(i))
    engine.run()
    assert order == list(range(10))


def test_periodic_event_models_a_clock():
    engine = SimulationEngine()
    ticks = []
    engine.schedule_periodic(start=0.5, period=2.0,
                             callback=lambda _: ticks.append(engine.now))
    engine.run(until=10.0)
    assert ticks == [0.5, 2.5, 4.5, 6.5, 8.5]


def test_figure4_three_clock_example():
    """The example of Figure 4: clocks of period 2, 3 and 2.5 ns."""
    engine = SimulationEngine()
    fires = {"clk1": 0, "clk2": 0, "clk3": 0}

    engine.schedule_periodic(0.5, 2.0, lambda _: fires.__setitem__("clk1", fires["clk1"] + 1))
    engine.schedule_periodic(1.0, 3.0, lambda _: fires.__setitem__("clk2", fires["clk2"] + 1))
    engine.schedule_periodic(0.0, 2.5, lambda _: fires.__setitem__("clk3", fires["clk3"] + 1))
    engine.run(until=30.0)
    # edges at start + k*period, k >= 0, up to and including t=30
    assert fires["clk1"] == len([t for t in range(100) if 0.5 + t * 2.0 <= 30.0])
    assert fires["clk2"] == len([t for t in range(100) if 1.0 + t * 3.0 <= 30.0])
    assert fires["clk3"] == len([t for t in range(100) if 0.0 + t * 2.5 <= 30.0])


def test_cancel_chain_stops_periodic_event():
    engine = SimulationEngine()
    count = []
    engine.schedule_periodic(0.0, 1.0, lambda _: count.append(1), name="clock:x")

    def stopper(_):
        engine.cancel_chain("clock:x")

    engine.schedule(5.5, stopper)
    engine.run(until=20.0)
    assert len(count) == 6  # t = 0..5


def test_stop_condition_halts_run():
    """A callback that sees its stop condition met ends the run via stop()."""
    engine = SimulationEngine()
    count = []

    def tick(_):
        count.append(1)
        if len(count) >= 7:
            engine.stop()

    engine.schedule_periodic(0.0, 1.0, tick)
    assert engine.run(until=100.0) == 6.0
    assert len(count) == 7
    assert engine.events_processed == 7


def test_schedule_in_the_past_raises():
    engine = SimulationEngine()
    engine.schedule(5.0, lambda _: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule(1.0, lambda _: None)


def test_negative_delay_and_bad_period_raise():
    engine = SimulationEngine()
    with pytest.raises(SimulationError):
        engine.schedule(engine.now - 1.0, lambda _: None)
    with pytest.raises(SimulationError):
        engine.schedule_periodic(0.0, 0.0, lambda _: None)


def test_event_callback_receives_parameter():
    engine = SimulationEngine()
    received = []
    engine.schedule(1.0, received.append, param="payload")
    engine.run()
    assert received == ["payload"]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1000.0,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=40))
def test_property_events_always_processed_in_nondecreasing_time(times):
    engine = SimulationEngine()
    seen = []
    for t in times:
        engine.schedule(t, lambda _, when=t: seen.append(when))
    engine.run()
    assert seen == sorted(times)
    assert len(seen) == len(times)
