"""Tests for the clock wheel, the simulation engine's only event queue.

The wheel holds periodic chains and one-shots (chains that retire after one
fire).  It replaced a scheduler that kept every event on a heap (the seed
engine's behaviour) and had to fire events in the same order at the same
timestamps.  The logs that scheduler produced are pinned below, as literals
or as length plus sha256 of their ``repr``; the other tests check
cancellation and mixed periodic/one-shot schedules.
"""

import hashlib

import pytest

from repro.sim.engine import SimulationEngine
from repro.sim.event import SimulationError


def _record_script(engine):
    """Run a representative mixed schedule and return the observed log."""
    log = []

    def tick(name):
        return lambda _: log.append((name, round(engine.now, 9)))

    engine.schedule_periodic(0.13, 1.0, tick("a"))
    engine.schedule_periodic(0.77, 1.0, tick("b"))
    engine.schedule_periodic(0.40, 1.1, tick("c"))
    engine.schedule_periodic(0.91, 1.5, tick("d"))

    def one_shot(_):
        log.append(("one", round(engine.now, 9)))
        # schedule another one-shot from inside a callback
        engine.schedule(engine.now + 0.35, lambda _: log.append(("two", round(engine.now, 9))))

    engine.schedule(5.05, one_shot)
    engine.schedule(8.0, lambda _: engine.cancel_chain("no-such-chain"),
                    name="noop")
    engine.run(until=25.0)
    return log


def _digest(log):
    return len(log), hashlib.sha256(repr(log).encode()).hexdigest()


def test_wheel_and_generic_paths_fire_identically():
    assert _digest(_record_script(SimulationEngine())) == (
        92, "e7aa0f1c5af8f3a963395134fc34b2ea37ebfceb605753e85ca45923461280cd")


def test_wheel_equal_period_rotation_matches_generic():
    """Five equal-period clocks (the GALS uniform plan shape)."""
    def script(engine):
        log = []
        for index, phase in enumerate((0.13, 0.77, 0.40, 0.91, 0.05)):
            engine.schedule_periodic(
                phase, 1.0, lambda _, i=index: log.append((i, engine.now)))
        engine.run(until=50.0)
        return log

    log = script(SimulationEngine())
    assert log[:6] == [(4, 0.05), (0, 0.13), (2, 0.4), (1, 0.77), (3, 0.91),
                       (4, 1.05)]
    assert _digest(log) == (
        250, "689d8785cf326cc356412c3bc660556ddcb03e1f71b6342ac1a0b0a90e3bc33c")


def test_one_shot_interleaves_with_wheel():
    engine = SimulationEngine()
    log = []
    engine.schedule_periodic(0.5, 1.0, lambda _: log.append(("clk", engine.now)))
    engine.schedule(2.25, lambda _: log.append(("shot", engine.now)))
    engine.run(until=4.0)
    assert log == [("clk", 0.5), ("clk", 1.5), ("shot", 2.25),
                   ("clk", 2.5), ("clk", 3.5)]


def test_schedule_requires_callback():
    engine = SimulationEngine()
    with pytest.raises(SimulationError):
        engine.schedule(1.0, None)
    with pytest.raises(SimulationError):
        engine.schedule_periodic(0.0, 1.0, None)


def test_pending_events_excludes_cancelled():
    """Cancelled one-shots and chains never fire and leave the wheel."""
    engine = SimulationEngine()
    fired = []
    events = [engine.schedule(float(t + 1), fired.append, param=t)
              for t in range(10)]
    chain = engine.schedule_periodic(5.5, 1.0, fired.append, param="clk")
    for event in events[:4]:
        event.cancel()
    chain.cancel()
    engine.run()
    assert fired == [4, 5, 6, 7, 8, 9]
    assert engine.events_processed == 6
    assert engine._wheel == []


def test_one_shot_ties_with_clock_edges_by_priority_then_seq():
    """A re-armed edge draws its seq after its callback, as a re-pushed heap
    event would: a one-shot scheduled before that wins the tie, one
    scheduled after it loses."""
    engine = SimulationEngine()
    log = []
    engine.schedule(1.0, lambda _: log.append("early-shot"), priority=1)
    engine.schedule_periodic(0.0, 1.0, lambda _: log.append(("clk", engine.now)),
                             priority=1)
    engine.schedule(0.0, lambda _: engine.schedule(
        1.0, lambda _: log.append("after-edge"), priority=1), priority=2)
    engine.schedule(1.0, lambda _: log.append("urgent-shot"), priority=0)
    engine.run(until=2.0)
    assert log == [("clk", 0.0), "urgent-shot", "early-shot", ("clk", 1.0),
                   "after-edge", ("clk", 2.0)]


def test_next_chain_time_ignores_one_shots():
    engine = SimulationEngine()
    engine.schedule(0.25, lambda _: None, name="clock:x")
    assert engine.next_chain_time("clock:x") is None
    engine.schedule_periodic(0.5, 1.0, lambda _: None, name="clock:x")
    assert engine.next_chain_time("clock:x") == 0.5


def test_cancel_chain_from_wheel_and_heap():
    engine = SimulationEngine()
    count = []
    engine.schedule_periodic(0.0, 1.0, lambda _: count.append(1), name="clock:x")
    engine.schedule(5.5, lambda _: engine.cancel_chain("clock:x"))
    engine.run(until=20.0)
    assert len(count) == 6  # t = 0..5


def test_cancelling_periodic_handle_stops_chain():
    engine = SimulationEngine()
    count = []
    handle = engine.schedule_periodic(0.0, 1.0, lambda _: count.append(1))

    def stopper(_):
        handle.cancel()

    engine.schedule(3.5, stopper)
    engine.run(until=10.0)
    assert len(count) == 4  # t = 0, 1, 2, 3


def test_wide_phase_spread_keeps_event_order():
    """Equal periods but starts more than one period apart: the rotation
    fast path must not apply (it would fire events out of time order)."""
    def script(engine):
        log = []
        engine.schedule_periodic(0.0, 1.0, lambda _: log.append(("a", engine.now)))
        engine.schedule_periodic(5.0, 1.0, lambda _: log.append(("b", engine.now)))
        engine.run(until=7.0)
        return log

    assert script(SimulationEngine()) == [
        ("a", 0.0), ("a", 1.0), ("a", 2.0), ("a", 3.0), ("a", 4.0),
        ("b", 5.0), ("a", 5.0), ("b", 6.0), ("a", 6.0), ("b", 7.0),
        ("a", 7.0)]


def test_cancel_plus_reschedule_from_callback():
    """cancel_chain + schedule_periodic inside a callback leaves the wheel
    size unchanged; the engine must still notice the membership change."""
    def script(engine):
        log = []

        def swap(_):
            if not any(name == "swap" for name, _ in log):
                engine.cancel_chain("victim")
                engine.schedule_periodic(engine.now + 0.25, 1.0,
                                         lambda _: log.append(("new", engine.now)))
                log.append(("swap", engine.now))

        engine.schedule_periodic(0.0, 1.0, lambda _: log.append(("keep", engine.now)))
        engine.schedule_periodic(0.5, 1.0, lambda _: log.append(("victim", engine.now)),
                                 name="victim")
        engine.schedule_periodic(0.75, 1.0, swap)
        engine.run(until=6.0)
        return log

    assert script(SimulationEngine()) == [
        ("keep", 0.0), ("victim", 0.5), ("swap", 0.75),
        *[(name, float(t)) for t in range(1, 7) for name in ("keep", "new")]]


def test_handle_cancel_after_first_fire_stops_chain_on_both_paths():
    def script(engine):
        count = []
        handle = engine.schedule_periodic(0.0, 1.0, lambda _: count.append(1))
        engine.run(until=3.5)       # fires t = 0..3
        handle.cancel()
        engine.run(until=10.0)
        return len(count)

    assert script(SimulationEngine()) == 4


def test_cancel_after_one_shot_fired_keeps_pending_count_accurate():
    engine = SimulationEngine()
    fired = engine.schedule(1.0, lambda _: None)
    engine.schedule(5.0, lambda _: None)
    engine.run(until=2.0)
    fired.cancel()                 # already fired: must not skew bookkeeping
    assert engine.events_processed == 1
    engine.run()
    assert engine.events_processed == 2
    assert engine.now == 5.0


def test_periodic_scheduled_mid_run_joins_wheel():
    engine = SimulationEngine()
    log = []

    def spawn(_):
        engine.schedule_periodic(engine.now + 0.25, 1.0,
                                 lambda _: log.append(("late", engine.now)))

    engine.schedule_periodic(0.0, 1.0, lambda _: log.append(("base", engine.now)))
    engine.schedule(2.1, spawn)
    engine.run(until=5.0)
    assert ("late", 2.35) in log
    assert log.count(("late", 4.35)) == 1
