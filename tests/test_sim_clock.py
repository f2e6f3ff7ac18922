"""Unit tests for clocks and clock domains."""

import pytest

from repro.sim.clock import Clock, ClockDomain
from repro.sim.engine import SimulationEngine
from repro.sim.event import SimulationError


class TickCounter:
    def __init__(self):
        self.edges = []

    def clock_edge(self, cycle, time):
        self.edges.append((cycle, time))


def test_clock_edge_times_and_cycle_count():
    clock = Clock("test", period=2.0, phase=0.5)
    assert clock.edge_time(0) == 0.5
    assert clock.edge_time(3) == 6.5
    assert clock.frequency == 0.5
    assert clock.cycles_elapsed(0.4) == 0
    assert clock.cycles_elapsed(0.5) == 1
    assert clock.cycles_elapsed(6.6) == 4


def test_clock_phase_wraps_into_period():
    clock = Clock("test", period=2.0, phase=5.0)
    assert clock.phase == pytest.approx(1.0)


def test_clock_validation():
    with pytest.raises(SimulationError):
        Clock("bad", period=0.0)
    with pytest.raises(SimulationError):
        Clock("bad", period=1.0, phase=-0.1)


def test_domain_ticks_components_every_edge():
    engine = SimulationEngine()
    domain = ClockDomain(Clock("core", period=1.0))
    counter = TickCounter()
    domain.add_component(counter)
    domain.bind(engine)
    engine.run(until=4.5)
    assert [cycle for cycle, _ in counter.edges] == [0, 1, 2, 3, 4]
    assert domain.cycle == 5


def test_domain_components_tick_in_registration_order():
    engine = SimulationEngine()
    domain = ClockDomain(Clock("core", period=1.0))
    order = []

    class Stage:
        def __init__(self, name):
            self.name = name

        def clock_edge(self, cycle, time):
            order.append(self.name)

    domain.add_component(Stage("commit"))
    domain.add_component(Stage("fetch"))
    domain.bind(engine)
    engine.run(until=0.0)
    assert order == ["commit", "fetch"]


def test_power_probe_runs_after_every_component_on_each_edge():
    class Stage:
        def __init__(self, name, order):
            self.name = name
            self.order = order

        def clock_edge(self, cycle, time):
            self.order.append((self.name, cycle, time))

    for components in (0, 1, 2):
        engine = SimulationEngine()
        domain = ClockDomain(Clock("core", period=1.0, phase=0.5))
        order = []
        for index in range(components):
            domain.add_component(Stage(f"stage{index}", order))
        domain.attach_power_probe(
            lambda: order.append(("probe", domain.cycle,
                                  domain.last_edge_time)))
        domain.bind(engine)
        engine.run(until=2.0)                  # edges at 0.5 and 1.5
        stages = [f"stage{index}" for index in range(components)]
        assert order == [
            *((name, 0, 0.5) for name in stages), ("probe", 0, 0.5),
            *((name, 1, 1.5) for name in stages), ("probe", 1, 1.5),
        ]
        assert domain.cycle == 2


def test_unbind_stops_clock():
    engine = SimulationEngine()
    domain = ClockDomain(Clock("core", period=1.0))
    counter = TickCounter()
    domain.add_component(counter)
    domain.bind(engine)
    engine.run(until=2.0)
    domain.unbind()
    engine.run(until=10.0)
    assert domain.cycle == 3  # edges at 0, 1, 2 only


def test_two_domains_with_different_periods():
    engine = SimulationEngine()
    fast = ClockDomain(Clock("fast", period=1.0))
    slow = ClockDomain(Clock("slow", period=3.0))
    fast_count, slow_count = TickCounter(), TickCounter()
    fast.add_component(fast_count)
    slow.add_component(slow_count)
    fast.bind(engine)
    slow.bind(engine)
    engine.run(until=9.0)
    assert len(fast_count.edges) == 10
    assert len(slow_count.edges) == 4
