"""Flush-point correctness of the deferred telemetry accounting engine.

The accountant charges idle energy lazily and the occupancy samplers buffer
run-length-encoded counts, both settled at observation points.  The
load-bearing contract: *when* the flushes happen must never change *what*
they produce.  These tests interleave
``total_energy()`` reads, full-telemetry flushes, controller epochs and
mid-run ``retime_domain`` calls at arbitrary times and require the final
``EnergyBreakdown`` (and every occupancy statistic) to be bit-equal to an
undisturbed run, including a mid-epoch retime immediately followed by a
flush.
"""

import random
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._compat import ordered_sum
from repro.core.processor import Processor
from repro.core.scenario import run_scenario
from repro.power.accounting import PowerAccountant
from repro.power.activity import ActivityCounters
from repro.power.blocks import BlockEnergyModel
from repro.sim.clock import Clock, ClockDomain
from repro.sim.engine import SimulationEngine
from repro.workloads.registry import build_workload

SMALL = 400


def _run(flush_times=(), retimes=(), retime_flush=False, instructions=SMALL):
    """One GALS run with optional scripted observations and retimes.

    ``flush_times`` schedules full-telemetry reads (energy + occupancy) at
    the given absolute times; ``retimes`` schedules ``retime_domain`` calls
    as ``(time, domain, slowdown)``; ``retime_flush`` additionally reads the
    total energy immediately after each retime (the mid-epoch
    retime-then-flush case).
    """
    trace, workload = build_workload("perl", instructions, seed=1)
    machine = Processor(trace, workload=workload, topology="gals5")

    def observe(_):
        machine.power.total_energy()
        machine.flush_telemetry()

    for at in flush_times:
        machine.engine.schedule(at, observe, priority=7, name="observe")

    def make_retime(domain, slowdown):
        def do_retime(_):
            machine.retime_domain(domain,
                                  machine.plan.base_period * slowdown)
            if retime_flush:
                machine.power.total_energy()
        return do_retime

    for at, domain, slowdown in retimes:
        machine.engine.schedule(at, make_retime(domain, slowdown),
                                priority=8, name="retime")
    return machine.run()


def _comparable(result):
    record = asdict(result)
    record.pop("dvfs_trace")
    return record


def test_interleaved_flushes_never_change_the_result():
    plain = _run()
    rng = random.Random(7)
    noisy = _run(flush_times=sorted(rng.uniform(1.0, 150.0)
                                    for _ in range(25)))
    assert _comparable(noisy) == _comparable(plain)


def test_flush_is_idempotent_and_total_energy_is_monotone_nondecreasing():
    trace, workload = build_workload("perl", SMALL, seed=1)
    machine = Processor(trace, workload=workload, topology="gals5")
    seen = []

    def observe(_):
        first = machine.power.total_energy()
        second = machine.power.total_energy()   # immediate re-read
        assert first == second
        seen.append(first)

    machine.engine.schedule_periodic(5.0, 20.0, observe, priority=7,
                                     name="observe")
    machine.run()
    assert seen == sorted(seen)
    assert seen[-1] > 0.0


def test_mid_run_retime_with_and_without_immediate_flush_bit_equal():
    retimes = ((40.7, "fp", 1.5), (90.3, "integer", 1.2))
    unflushed = _run(retimes=retimes)
    flushed = _run(retimes=retimes, retime_flush=True)
    assert _comparable(flushed) == _comparable(unflushed)
    # the retime visibly slowed the fp clock, so the runs are not trivial
    assert unflushed.domain_cycles["fp"] < unflushed.domain_cycles["decode"]


def test_retimes_with_interleaved_observation_storm_bit_equal():
    rng = random.Random(13)
    retimes = ((33.3, "fp", 1.4), (77.7, "fetch", 1.1), (120.1, "fp", 1.0))
    plain = _run(retimes=retimes)
    noisy = _run(retimes=retimes, retime_flush=True,
                 flush_times=sorted(rng.uniform(1.0, 140.0)
                                    for _ in range(30)))
    assert _comparable(noisy) == _comparable(plain)


def test_retime_and_flush_storm_matches_pinned_wakeup_result():
    """The flush-point invariance contract extends to the wakeup state: a
    retime landing between a producer's writeback and the consumer's issue
    pass (with telemetry reads racing both) must leave the waiter/ready-list
    bookkeeping producing the result the legacy scan produced, pinned in
    ``test_golden_regression``: cached visibility prices go stale exactly as
    they did there."""
    from test_golden_regression import assert_pinned
    assert_pinned("retime-flush-storm")


def test_controller_epochs_with_extra_reads_leave_trace_and_result_unchanged():
    plain = run_scenario("gals5-perl-occupancy", num_instructions=SMALL)
    # identical scenario, but the driver's epochs race extra observations
    trace, workload = build_workload("perl", SMALL, seed=1)
    from repro.core.controllers import make_controller
    from repro.core.scenario import get_scenario

    scenario = get_scenario("gals5-perl-occupancy")
    machine = Processor(
        trace, workload=workload,
        topology=scenario.topology,
        plan=scenario.build_plan(),
        controller=make_controller(scenario.controller,
                                   scenario.controller_args),
        controller_epoch=scenario.controller_epoch,
    )
    machine.engine.schedule_periodic(
        3.3, 11.7, lambda _: (machine.power.total_energy(),
                              machine.flush_telemetry()),
        priority=9, name="observe")
    noisy = machine.run()
    assert noisy.dvfs_trace == plain.result.dvfs_trace
    assert noisy.energy.by_block == plain.result.energy.by_block
    assert noisy.mean_iq_occupancy == plain.result.mean_iq_occupancy


def test_occupancy_counters_flush_on_read_matches_domain_cycles():
    trace, workload = build_workload("perl", SMALL, seed=1)
    machine = Processor(trace, workload=workload, topology="gals5")
    result = machine.run()
    # every cluster samples its window once per domain cycle; the deferred
    # run-length counters must reconstruct the exact sample count
    for name, unit in machine.exec_units.items():
        domain = machine.domains[machine.topology.domain_of(
            {"int": "integer", "fp": "fp", "mem": "memory"}[name])]
        assert unit.issue_queue.occupancy_samples == domain.cycle
    assert result.mean_iq_occupancy["fp"] == pytest.approx(
        machine.exec_units["fp"].issue_queue.mean_occupancy)


def test_block_registered_into_running_domain_charges_idle_energy():
    engine = SimulationEngine()
    domain = ClockDomain(Clock("core", period=1.0), voltage=1.5)
    accountant = PowerAccountant(ActivityCounters())
    accountant.register_block(BlockEnergyModel("a", access_energy=1.0), domain)
    domain.bind(engine)
    engine.run(until=4.5)                      # edges 0..4: voltage run open
    late = BlockEnergyModel("b", access_energy=2.0)
    accountant.register_block(late, domain)    # joins mid-run
    engine.run(until=9.5)                      # edges 5..9 with b present
    idle_b = late.cycle_energy(0, 1.5, accountant.tech)
    assert accountant.energy_by_block["b"] == pytest.approx(5 * idle_b)
    assert accountant.energy_by_block["b"] > 0.0


def test_registration_on_a_bound_domain_raises():
    # bind() freezes the components and the power probe into the edge tick,
    # so a late registration must fail loudly rather than never tick
    from repro.sim.event import SimulationError

    class Component:
        def clock_edge(self, cycle, time):
            """No-op component."""

    for components in (0, 1, 2):
        engine = SimulationEngine()
        domain = ClockDomain(Clock("core", period=1.0))
        for _ in range(components):
            domain.add_component(Component())
        domain.bind(engine)
        with pytest.raises(SimulationError, match="before bind"):
            domain.add_component(Component())
        with pytest.raises(SimulationError, match="before bind"):
            domain.attach_power_probe(lambda: None)
        accountant = PowerAccountant(ActivityCounters())
        with pytest.raises(SimulationError, match="before bind"):
            accountant.register_block(
                BlockEnergyModel("a", access_energy=1.0), domain)
        engine.run(until=2.0)                  # the bound tick is unchanged
        assert domain.cycle == 3


def test_accountant_energy_by_block_view_flushes_and_matches_manual_model():
    engine = SimulationEngine()
    domain = ClockDomain(Clock("core", period=1.0), voltage=1.5)
    activity = ActivityCounters()
    accountant = PowerAccountant(activity)
    block = BlockEnergyModel("alu", access_energy=1.0, ports=1)
    accountant.register_block(block, domain)
    accountant.register_block(
        BlockEnergyModel("grid", access_energy=0.25, gated=False), domain)

    class Worker:
        def clock_edge(self, cycle, time):
            if cycle % 2 == 0:
                activity.cell("alu")[0] += 1

    domain.add_component(Worker())
    domain.bind(engine)
    tech = accountant.tech
    active_e = block.cycle_energy(1, 1.5, tech)
    idle_e = block.cycle_energy(0, 1.5, tech)
    grid_e = accountant._records["core"][2][0][0].cycle_energy(0, 1.5, tech)

    expected_alu = 0.0
    expected_grid = 0.0
    edges = 0
    for stop in (2.5, 3.5, 7.5):      # observation points at odd moments
        engine.run(until=stop)
        new_edges = domain.cycle
        for cycle in range(edges, new_edges):
            expected_alu += active_e if cycle % 2 == 0 else idle_e
            expected_grid += grid_e
        edges = new_edges
        view = accountant.energy_by_block          # flush-on-read property
        assert view["alu"] == expected_alu
        assert view["grid"] == expected_grid
    assert accountant.total_energy() == expected_alu + expected_grid


# ----------------------------------------- accountant versus an eager loop
#: Supply voltages the property test switches between (all above threshold).
_VOLTAGES = (1.0, 1.2, 1.5, 1.8)
_MAX_ACCESSES = 4
#: Observation drawn per edge: mostly none, so reads leave long stretches.
_READS = {7: "flush", 8: "view", 9: "total"}


@st.composite
def _accounting_schedules(draw):
    """Per-edge accesses, voltages and observations for four blocks.

    Blocks ``g0``-``g2`` are gated, ``grid`` is always on; ``late`` (gated)
    is registered while the domain runs, at edge ``join``.
    """
    edges = draw(st.integers(min_value=1, max_value=60))
    join = draw(st.integers(min_value=0, max_value=edges - 1))
    counts = st.integers(min_value=0, max_value=_MAX_ACCESSES)
    steps = []
    for edge in range(edges):
        blocks = ("g0", "g1", "g2") + (("late",) if edge >= join else ())
        steps.append((
            {name: draw(counts) for name in blocks},
            draw(st.sampled_from(_VOLTAGES)) if draw(st.booleans()) else None,
            _READS.get(draw(st.integers(min_value=0, max_value=9))),
        ))
    return join, steps


@settings(max_examples=60, deadline=None)
@given(_accounting_schedules(),
       st.lists(st.floats(min_value=0.05, max_value=20.0), min_size=4,
                max_size=4))
def test_accountant_equals_an_eager_per_edge_loop(schedule, energies):
    join, steps = schedule
    engine = SimulationEngine()
    domain = ClockDomain(Clock("core", period=1.0), voltage=_VOLTAGES[0])
    activity = ActivityCounters()
    accountant = PowerAccountant(activity)
    tech = accountant.tech
    models = {f"g{i}": BlockEnergyModel(f"g{i}", access_energy=energies[i],
                                        ports=i + 1) for i in range(3)}
    models["grid"] = BlockEnergyModel("grid", access_energy=energies[3],
                                      gated=False)
    late = BlockEnergyModel("late", access_energy=0.7, ports=2)
    for model in models.values():
        accountant.register_block(model, domain)

    expected = {name: 0.0 for name in models}
    observed = []

    def assert_bounded_cells():
        # memory guard: nothing an accounting cell holds grows with the
        # edges (the per-cell memo is keyed by access count, so it is
        # bounded by it)
        for _state, *cell_lists in accountant._records.values():
            for cells in cell_lists:
                for cell in cells:
                    for slot in cell:
                        if isinstance(slot, (list, tuple, dict, set)):
                            assert len(slot) <= _MAX_ACCESSES + 1

    class Worker:
        def clock_edge(self, cycle, time):
            assert_bounded_cells()
            accesses, vdd, read = steps[cycle]
            if cycle == join:
                accountant.register_block(late, domain)
                models["late"] = late
                expected["late"] = 0.0
            if read == "flush":
                accountant.flush()
            elif read == "view":
                observed.append((dict(accountant.energy_by_block),
                                 dict(expected)))
            elif read == "total":
                observed.append((accountant.total_energy(),
                                 ordered_sum(expected.values())))
            if vdd is not None:
                domain.voltage = vdd
            for name, count in accesses.items():
                activity.cell(name)[0] += count
            # the eager model: one addition per block per edge, in order
            for name, model in models.items():
                expected[name] += model.cycle_energy(accesses.get(name, 0),
                                                     domain.voltage, tech)

    domain.add_component(Worker())
    domain.bind(engine)
    engine.run(until=len(steps) - 0.5)
    assert domain.cycle == len(steps)
    assert_bounded_cells()
    for got, want in observed:
        assert got == want
    assert accountant.energy_by_block == expected
    assert accountant.total_energy() == ordered_sum(expected.values())
