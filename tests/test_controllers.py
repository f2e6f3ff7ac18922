"""Online DVFS controllers: retiming mechanics, determinism, and the
adaptive-beats-static acceptance criterion.

The three load-bearing contracts:

* the ``static`` controller (and any controller that never retimes) is
  **bit-identical** to the plain SlowdownPolicy path -- including the pinned
  goldens of ``test_golden_regression``;
* controller runs are deterministic: same scenario + controller + seed give a
  bit-identical ``ScenarioResult``, equal to a pinned result and through the
  results store;
* an adaptive controller beats the best registered static policy on ED² for
  at least one workload (the FP-bound ``tomcatv``, where no static policy in
  the registry helps).
"""

import json
from dataclasses import asdict, replace

import pytest

from repro.analysis.report import (design_space_records, design_space_table,
                                   dvfs_trace_records, dvfs_trace_table,
                                   phase_resolved_table, phase_trace_records)
from repro.core.controllers import (CONTROLLERS, EpochTelemetry,
                                    IntervalController, OccupancyController,
                                    PidController, available_controllers,
                                    make_controller)
from repro.core.dvfs import POLICIES
from repro.core.scenario import Scenario, run_scenario, sweep_scenarios
from repro.results import ResultsStore
from repro.sim.clock import Clock, ClockDomain
from repro.sim.engine import SimulationEngine
from repro.sim.event import SimulationError

SMALL = 400


def _telemetry(epoch=0, time_ns=50.0, ipc=2.0, occupancy=None, slowdowns=None):
    return EpochTelemetry(
        epoch=epoch, time_ns=time_ns, epoch_ns=50.0, committed=100,
        committed_delta=100, ipc=ipc, energy_nj=500.0, energy_delta_nj=500.0,
        queue_occupancy=occupancy or {}, slowdowns=slowdowns or {})


# ------------------------------------------------------------------- registry
def test_registry_holds_the_four_required_controllers():
    assert {"static", "interval", "occupancy", "pid"} <= set(CONTROLLERS)
    assert available_controllers() == tuple(CONTROLLERS)


def test_make_controller_builds_fresh_configured_instances():
    first = make_controller("pid", {"setpoint": 1.5})
    second = make_controller("pid", {"setpoint": 1.5})
    assert first is not second
    assert first.setpoint == 1.5


def test_make_controller_rejects_unknown_names_and_bad_args():
    with pytest.raises(KeyError, match="unknown DVFS controller"):
        make_controller("nonesuch")
    with pytest.raises(ValueError, match="invalid arguments"):
        make_controller("pid", {"no_such_arg": 1})


# ----------------------------------------------------------- controller logic
def test_static_controller_never_changes_anything():
    controller = make_controller("static")
    assert controller.observe(_telemetry()) is None


def test_interval_controller_follows_its_schedule():
    controller = IntervalController(
        schedule=[[0.0, {"fp": 1.0}], [100.0, {"fp": 2.0}]])
    first = controller.observe(_telemetry(time_ns=50.0))
    assert first == {"fp": 1.0}
    # same segment again: no change
    assert controller.observe(_telemetry(time_ns=99.0)) is None
    second = controller.observe(_telemetry(time_ns=100.0))
    assert second == {"fp": 2.0}


def test_interval_controller_rejects_unknown_blocks():
    with pytest.raises(ValueError, match="unknown blocks"):
        IntervalController(schedule=[[0.0, {"warp": 2.0}]])


def test_interval_controller_rejects_speedup_slowdowns_eagerly():
    # a < 1.0 slowdown must fail at construction, not mid-simulation
    with pytest.raises(ValueError, match=">= 1.0"):
        IntervalController(schedule=[[0.0, {"fp": 0.8}]])


def test_occupancy_controller_ramps_idle_and_snaps_busy():
    controller = OccupancyController(low=0.5, high=4.0, step=0.5,
                                     max_slowdown=2.0)
    # fp queue idle -> ramp fp up one step
    vector = controller.observe(_telemetry(occupancy={"iq_fp": 0.0}))
    assert vector["fp"] == 1.5
    # still idle at the cap -> clamps
    vector = controller.observe(_telemetry(
        occupancy={"iq_fp": 0.0}, slowdowns={"fp": 2.0}))
    assert vector is None or vector["fp"] == 2.0
    # busy -> snaps back to nominal in one decision
    vector = controller.observe(_telemetry(
        occupancy={"iq_fp": 5.0}, slowdowns={"fp": 2.0}))
    assert vector["fp"] == 1.0


def test_occupancy_controller_fetch_polarity_is_reversed():
    controller = OccupancyController(fetch_low=2.0, fetch_high=6.0, step=0.5,
                                     max_fetch_slowdown=1.5)
    # a full fetch queue means fetch runs ahead -> slow it
    vector = controller.observe(_telemetry(occupancy={"fetch_q": 7.0}))
    assert vector["fetch"] == 1.5
    # a drained fetch queue restores full speed
    vector = controller.observe(_telemetry(
        occupancy={"fetch_q": 0.5}, slowdowns={"fetch": 1.5}))
    assert vector["fetch"] == 1.0


def test_pid_controller_slows_on_slack_and_recovers_on_pressure():
    controller = PidController(setpoint=2.0, kp=1.0, blocks=("fp",),
                               max_slowdown=3.0, step=0.25)
    # IPC above the setpoint: slack -> slow down
    vector = controller.observe(_telemetry(ipc=3.0))
    assert vector["fp"] == 2.0
    # IPC below the setpoint: pressure -> speed back up
    vector = controller.observe(_telemetry(ipc=1.0, slowdowns={"fp": 2.0}))
    assert vector["fp"] == 1.0
    # output is quantized: sub-step noise does not retime
    controller = PidController(setpoint=2.0, kp=0.1, blocks=("fp",), step=0.5)
    assert controller.observe(_telemetry(ipc=2.1)) is None


# ----------------------------------------------------------- retime mechanics
def test_clock_domain_retime_keeps_pending_edge_and_new_period():
    engine = SimulationEngine()
    edges = []
    domain = ClockDomain(Clock(name="d", period=1.0, phase=0.5))

    class Recorder:
        def clock_edge(self, cycle, time):
            edges.append(time)

    domain.add_component(Recorder())
    domain.bind(engine)
    engine.run(until=2.6)                      # edges at 0.5, 1.5, 2.5
    domain.retime(2.0)                         # pending edge at 3.5 anchors
    engine.run(until=8.0)                      # then 5.5, 7.5
    assert edges == [0.5, 1.5, 2.5, 3.5, 5.5, 7.5]
    assert domain.cycle == 6                   # counter never reset


def test_clock_domain_retime_requires_bound_domain_and_positive_period():
    domain = ClockDomain(Clock(name="d", period=1.0))
    with pytest.raises(SimulationError, match="unbound"):
        domain.retime(2.0)
    engine = SimulationEngine()
    domain.bind(engine)
    with pytest.raises(SimulationError, match="positive"):
        domain.retime(0.0)


def test_engine_next_chain_time_on_both_scheduler_paths():
    engine = SimulationEngine()
    engine.schedule_periodic(start=0.5, period=2.0,
                             callback=lambda _: None, name="clock:x")
    assert engine.next_chain_time("clock:x") == 0.5
    assert engine.next_chain_time("clock:y") is None


def test_fifo_retime_refreshes_synchronizer_constants():
    from repro.async_comm.fifo import MixedClockFifo
    producer = Clock(name="p", period=1.0)
    consumer = Clock(name="c", period=1.0)
    fifo = MixedClockFifo("f", 8, producer_clock=producer,
                          consumer_clock=consumer, consumer_sync=2)
    fifo.push("a", 0.25)                       # visible at edge 1.0 + 2 cycles
    assert fifo._entries[0][2] == 3.0
    # consumer clock retimed: anchor 10.0, period 2.0
    consumer.period = 2.0
    consumer.phase = 10.0
    fifo.retime()
    # in-flight entry keeps its previously computed visibility
    assert fifo._entries[0][2] == 3.0
    # new pushes synchronize against the retimed clock: a push before the
    # anchor is captured by the anchor edge, then 2 consumer cycles
    fifo.push("b", 5.0)
    assert fifo._entries[1][2] == 10.0 + 2 * 2.0
    fifo.push("c", 11.0)                       # next edge after 11.0 is 12.0
    assert fifo._entries[2][2] == 12.0 + 2 * 2.0


def test_fifo_retime_keeps_pending_space_sorted_on_producer_speedup():
    """Speeding a producer back up must not break the sorted-ascending
    invariant of the freed-slot visibility deque (can_push relies on it)."""
    from repro.async_comm.fifo import MixedClockFifo
    producer = Clock(name="p", period=2.0)     # slowed producer
    consumer = Clock(name="c", period=1.0)
    fifo = MixedClockFifo("f", 4, producer_clock=producer,
                          consumer_clock=consumer, producer_sync=2)
    for item in "abcd":
        fifo.push(item, 0.1)                   # fill to capacity
    assert fifo.pop(2.5) == "a"                # slot frees at edge 4.0 + 2*2
    assert fifo._pending_space[0] == 8.0
    # producer snaps back to nominal speed; anchor = pending edge at 4.0
    producer.period = 1.0
    producer.phase = 4.0
    fifo.retime()
    # the in-flight flag is capped at one new-clock sync after the anchor...
    assert list(fifo._pending_space) == [4.0 + 2 * 1.0]
    # ...so slots freed under the new clock keep the deque ascending
    assert fifo.pop(4.5) == "b"                # edge 5.0 + 2 new cycles
    assert list(fifo._pending_space) == [6.0, 7.0]
    # and the producer can push again once the first slot is visible
    assert not fifo.can_push(5.9)
    assert fifo.can_push(6.0)


# -------------------------------------------------- bit-identity + determinism
def test_static_controller_bit_identical_to_policy_path():
    plain = run_scenario("gals5-perl-fp3", num_instructions=SMALL)
    static = run_scenario("gals5-perl-fp3", num_instructions=SMALL,
                          controller="static")
    expected = asdict(plain.result)
    actual = asdict(static.result)
    # the only permitted difference: the controller run records its trace
    assert expected.pop("dvfs_trace") is None
    trace = actual.pop("dvfs_trace")
    assert expected == actual
    assert trace and all(entry["retimed"] is False for entry in trace)


def test_static_controller_matches_pinned_goldens():
    """The 300-instruction golden values hold under controller="static"."""
    from test_golden_regression import GOLDEN
    expected = GOLDEN[("gals", "perl", 300)]
    outcome = run_scenario(Scenario(
        name="golden-static", topology="gals5", workload="perl",
        num_instructions=300, controller="static"))
    result = outcome.result
    assert result.elapsed_ns == expected["elapsed_ns"]
    assert result.ipc == expected["ipc"]
    assert result.mean_slip_ns == expected["mean_slip_ns"]
    assert result.total_energy_nj == expected["total_energy_nj"]
    assert result.domain_cycles == expected["domain_cycles"]


def test_controller_runs_are_deterministic():
    first = run_scenario("gals5-perl-occupancy", num_instructions=SMALL)
    second = run_scenario("gals5-perl-occupancy", num_instructions=SMALL)
    assert first.to_json() == second.to_json()


def test_controller_equivalent_on_wheel_and_heap_schedulers():
    """tomcatv under the occupancy controller reproduces the result pinned
    while the heap scheduler still agreed with the clock wheel."""
    from test_golden_regression import assert_pinned
    assert_pinned("gals5-tomcatv-occupancy")


def test_controller_scenarios_survive_the_process_pool():
    names = ["gals5-perl-occupancy", "gals5-perl-pid"]
    pooled = sweep_scenarios(names, jobs=2, num_instructions=SMALL)
    serial = [run_scenario(name, num_instructions=SMALL) for name in names]
    assert [r.to_json() for r in pooled] == [r.to_json() for r in serial]


def test_controller_results_round_trip_through_the_store(tmp_path):
    store = ResultsStore(root=tmp_path)
    fresh = run_scenario("gals5-perl-occupancy", num_instructions=SMALL)
    stored = run_scenario("gals5-perl-occupancy", num_instructions=SMALL,
                          store=store)
    loaded = run_scenario("gals5-perl-occupancy", num_instructions=SMALL,
                          store=store)
    assert store.hits == 1
    assert fresh.to_json() == stored.to_json() == loaded.to_json()


def test_controller_fields_change_the_cache_key(tmp_path):
    store = ResultsStore(root=tmp_path)
    base = Scenario(name="k", topology="gals5", workload="perl",
                    controller="occupancy", num_instructions=SMALL)
    key = store.key_for(base)
    assert store.key_for(replace(base, controller="pid")) != key
    assert store.key_for(replace(base, controller_epoch=25.0)) != key
    assert store.key_for(replace(base,
                                 controller_args={"step": 1.0})) != key
    # names remain pure metadata
    assert store.key_for(replace(base, name="renamed")) == key


# --------------------------------------------------------- scenario plumbing
def test_scenario_with_controller_round_trips_through_json():
    scenario = Scenario(name="rt", topology="gals5", workload="tomcatv",
                        controller="pid",
                        controller_args={"setpoint": 1.5, "blocks": ["fp"]},
                        controller_epoch=25.0)
    clone = Scenario.from_json(scenario.to_json())
    assert clone == scenario
    assert clone.build_controller().setpoint == 1.5


def test_scenario_controller_validation():
    with pytest.raises(ValueError, match="controller_epoch"):
        Scenario(name="bad", controller="static", controller_epoch=0.0)
    with pytest.raises(ValueError, match="controller_args"):
        Scenario(name="bad", controller_args={"step": 1.0})


def test_trace_records_and_table_render():
    outcome = run_scenario("gals5", num_instructions=SMALL,
                           workload="tomcatv", controller="occupancy")
    records = dvfs_trace_records(outcome)
    assert records, "controller run must produce a per-epoch trace"
    first = records[0]
    assert set(first) >= {"epoch", "time_ns", "ipc", "energy_nj",
                          "frequency_ghz", "slowdowns", "voltages"}
    assert set(first["frequency_ghz"]) == set(outcome.result.domain_cycles)
    table = dvfs_trace_table(outcome)
    assert "epoch" in table and "fetch" in table
    # a run without a controller renders the explanatory placeholder
    plain = run_scenario("gals5", num_instructions=200)
    assert "no DVFS trace" in dvfs_trace_table(plain)


def test_trace_is_json_serializable():
    outcome = run_scenario("gals5-perl-pid", num_instructions=SMALL)
    payload = json.loads(outcome.to_json())
    assert isinstance(payload["result"]["dvfs_trace"], list)


# --------------------------------------------------------------- acceptance
def test_occupancy_controller_beats_best_static_policy_on_ed2():
    """The ISSUE's acceptance criterion, on the FP-bound tomcatv workload.

    Every registered static policy either leaves energy on the table (uniform
    clocks) or slows the FP bottleneck (all registered policies slow fp);
    the occupancy controller instead discovers at run time that fetch,
    integer and memory have slack while fp is saturated.
    """
    instructions = 1000
    outcomes = [run_scenario("gals5", num_instructions=instructions,
                             workload="tomcatv", policy=policy)
                for policy in (None, *POLICIES)]
    adaptive = run_scenario("gals5", num_instructions=instructions,
                            workload="tomcatv", controller="occupancy")
    records = design_space_records(outcomes + [adaptive])
    static_ed2 = [record["ed2p_nj_ns2"] for record in records
                  if record["controller"] is None]
    adaptive_ed2 = [record["ed2p_nj_ns2"] for record in records
                    if record["controller"] == "occupancy"]
    assert len(adaptive_ed2) == 1
    best_static = min(static_ed2)
    # beat the best static policy with a real margin, not float noise
    assert adaptive_ed2[0] < 0.9 * best_static
    # the rendered compare table carries the controller column
    table = design_space_table(outcomes + [adaptive])
    assert "controller" in table.splitlines()[0]
    assert "occupancy" in table


# ------------------------------------------- phased-workload regression pins
PHASED_OSC = dict(workload="phased:intfp-osc", num_instructions=1200)
#: The adaptive configuration the phased-oscillation pin certifies: a short
#: epoch (so the controller sees each 400-instruction regime several times)
#: with full-step retiming up to 2x.
PHASED_ADAPTIVE = dict(controller="occupancy", controller_epoch=10.0,
                       controller_args={"step": 1.0, "max_slowdown": 2.0})


def test_adaptive_beats_every_static_policy_on_oscillating_phases():
    """No static policy can fit BOTH regimes of an oscillating mix.

    phased:intfp-osc alternates gcc (no FP work -- fp should sleep) with
    swim (streaming FP -- fp must run flat out) every 400 instructions.
    Each registered static policy commits to one answer for the whole run;
    the occupancy controller retimes at the regime changes and wins on ED2.
    """
    statics = [run_scenario("gals5", policy=policy, **PHASED_OSC)
               for policy in (None, *POLICIES)]
    others = [run_scenario("gals5", controller=name, **PHASED_OSC)
              for name in ("interval", "pid")]
    adaptive = run_scenario("gals5", **PHASED_OSC, **PHASED_ADAPTIVE)
    records = design_space_records(statics + others + [adaptive])
    static_ed2 = [record["ed2p_nj_ns2"] for record in records
                  if record["controller"] is None]
    assert len(static_ed2) == 1 + len(POLICIES)
    adaptive_ed2 = [record["ed2p_nj_ns2"] for record in records
                    if record["controller"] == "occupancy"]
    assert len(adaptive_ed2) == 1
    # beat the best static policy with margin (observed ratio ~0.89)
    assert adaptive_ed2[0] < 0.95 * min(static_ed2)


def test_controller_retimes_at_phase_boundaries():
    """The dvfs trace must show the controller reacting to regime changes."""
    adaptive = run_scenario("gals5", **PHASED_OSC, **PHASED_ADAPTIVE)
    records = phase_trace_records(adaptive)
    phases = sorted({record["phase"] for record in records})
    assert phases == [0, 1, 2]  # gcc, swim, gcc
    first_epoch = {}
    for position, record in enumerate(records):
        first_epoch.setdefault(record["phase"], position)
    for phase in phases[1:]:
        start = first_epoch[phase]
        # a retime lands within the first two epochs of each new regime
        assert any(record["retimed"] for record in records[start:start + 2])
    # steady state: fp is slowed while gcc runs, released while swim runs
    end_of = {record["phase"]: record for record in records}
    assert end_of[0]["slowdowns"]["fp"] > 1.0
    assert end_of[2]["slowdowns"]["fp"] > 1.0
    assert end_of[1]["slowdowns"]["fp"] == 1.0


def test_phase_resolved_table_shows_the_regimes():
    adaptive = run_scenario("gals5", **PHASED_OSC, **PHASED_ADAPTIVE)
    table = phase_resolved_table(adaptive)
    lines = table.splitlines()
    assert "segment" in lines[0] and "nJ/instr" in lines[0]
    assert len(lines) == 4  # header + one row per phase
    assert lines[1].split()[1] == "gcc"
    assert lines[2].split()[1] == "swim"
    assert lines[3].split()[1] == "gcc"


def test_phase_trace_requires_a_phased_workload():
    stationary = run_scenario("gals5-perl-occupancy", num_instructions=300)
    with pytest.raises(ValueError, match="not a phased: workload"):
        phase_trace_records(stationary)
