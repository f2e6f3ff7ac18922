"""Bit-exact golden results pinned at the pre-optimization (seed) simulator.

The fast-simulation-core rework promised *bit-identical* SimulationResult
statistics for identical seeds.  The values below were captured from the seed
tree (heapq engine, non-memoized power accounting) before any optimization
landed; the optimized simulator must keep reproducing them exactly.  If a
future change intentionally alters the model, update these constants in the
same commit and say so.

:data:`PINS` extends the contract to every case that used to be checked as a
differential against a reference implementation: the poll-based ``scan``
wakeup (a CAM search over the whole issue window each cycle) and the
all-heap scheduler for periodic clock events.  Each pin was recorded while
the default path and its reference still agreed bit for bit, so it holds the
reference's result; both references have since been deleted.
"""

import hashlib
import json
from dataclasses import asdict

import pytest

from repro.core.experiments import run_single
from repro.core.processor import Processor
from repro.core.scenario import Scenario, run_scenario
from repro.workloads.registry import build_workload

GOLDEN = {
    ("base", "perl", 300): {
        "committed_instructions": 300,
        "elapsed_ns": 112.0,
        "ipc": 2.6785714285714284,
        "mean_slip_ns": 12.726666666666667,
        "total_energy_nj": 2313.0213617022305,
        "recoveries": 0,
        "fetched_instructions": 300,
        "domain_cycles": {"core": 113},
    },
    ("gals", "perl", 300): {
        "committed_instructions": 300,
        "elapsed_ns": 146.7579544029403,
        "ipc": 2.044182212953968,
        "mean_slip_ns": 24.146865884748625,
        "total_energy_nj": 2427.5733704643303,
        "recoveries": 0,
        "fetched_instructions": 300,
        "domain_cycles": {"decode": 147, "fetch": 146, "fp": 147,
                          "integer": 147, "memory": 147},
    },
}


def test_golden_results_bit_identical_to_seed():
    for (kind, benchmark, instructions), expected in GOLDEN.items():
        result = run_single(benchmark, kind, num_instructions=instructions,
                            seed=1)
        assert result.committed_instructions == expected["committed_instructions"]
        # exact float equality on purpose: the contract is bit-identity
        assert result.elapsed_ns == expected["elapsed_ns"]
        assert result.ipc == expected["ipc"]
        assert result.mean_slip_ns == expected["mean_slip_ns"]
        assert result.total_energy_nj == expected["total_energy_nj"]
        assert result.recoveries == expected["recoveries"]
        assert result.fetched_instructions == expected["fetched_instructions"]
        assert result.domain_cycles == expected["domain_cycles"]


# --------------------------------------------------- pinned reference results
def result_digest(result):
    """sha256 of the whole result, every float at full precision."""
    text = json.dumps(asdict(result), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _scenario(scenario, instructions=500):
    return lambda: run_scenario(scenario,
                                num_instructions=instructions).result


def _machine(topology, instructions=500):
    def run():
        trace, workload = build_workload("perl", instructions, seed=1)
        return Processor(trace, workload=workload, topology=topology).run()
    return run


def _scripted_gals5(retimes, instructions=500, observe=None):
    """One perl run on gals5 with ``retime_domain`` calls at scripted times.

    The retimes run at priority 8, after the clock edges at the same
    instant, so one can land between a producer's writeback and the
    consumer's issue pass -- the window where a cached visibility price
    goes stale.  ``observe`` = (start, period) adds periodic telemetry
    flushes racing both.
    """
    def run():
        trace, workload = build_workload("perl", instructions, seed=1)
        machine = Processor(trace, workload=workload, topology="gals5")
        engine = machine.engine
        if observe is not None:
            engine.schedule_periodic(
                observe[0], observe[1],
                lambda _: (machine.power.total_energy(),
                           machine.flush_telemetry()),
                priority=9, name="observe")

        def make_retime(domain, slowdown):
            return lambda _: machine.retime_domain(
                domain, machine.plan.base_period * slowdown)

        for at, domain, slowdown in retimes:
            engine.schedule(at, make_retime(domain, slowdown),
                            priority=8, name="retime")
        return machine.run()
    return run


#: odd, non-edge-aligned times: the retimes interleave arbitrarily with
#: writebacks and issue passes across all five domains
RETIMES = ((23.7, "fp", 1.5), (41.3, "integer", 1.3), (67.9, "memory", 1.2),
           (88.1, "fp", 1.0), (104.513, "integer", 1.0))
RETIME_STORM = tuple((7.0 + 9.77 * i, ("integer", "fp", "memory")[i % 3],
                      (1.4, 1.1, 1.25, 1.0)[i % 4]) for i in range(12))
FLUSH_STORM_RETIMES = ((31.9, "fp", 1.4), (58.3, "integer", 1.2),
                       (95.7, "fp", 1.0))

#: case -> (run, what the case must exercise for its pin to mean anything)
CASES = {
    # synchronous: no forwarding latency at all
    "base": (_scenario("base"), None),
    # the paper's 5-domain machine, and the other registered partitions
    "gals5": (_scenario("gals5"), None),
    "fem3": (_scenario("fem3"), None),
    "memsplit2": (_scenario("memsplit2"), None),
    "alu4": (_scenario("alu4"), None),
    "frontback2": (_scenario("frontback2"), None),
    # assembled kernel and phased workloads
    "dotprod-gals5": (_scenario("dotprod-gals5"), None),
    "gals5-phased-osc": (_scenario("gals5-phased-osc"), None),
    # squashes unlink waiters on branch recovery
    "gals5-2500": (_scenario("gals5", 2500), lambda r: r.recoveries > 0),
    # online controllers retime domains mid-run
    "gals5-perl-occupancy-800": (_scenario("gals5-perl-occupancy", 800),
                                 lambda r: bool(r.dvfs_trace)),
    "gals5-tomcatv-occupancy": (
        _scenario(Scenario(name="eq", topology="gals5", workload="tomcatv",
                           controller="occupancy"), 400),
        lambda r: bool(r.dvfs_trace)),
    # replicated clusters
    "cluster2": (_scenario(Scenario(name="w", topology="cluster2",
                                    workload="perl"), 250),
                 lambda r: r.mean_iq_occupancy["int2"] > 0),
    # the processor built directly from a topology name
    "machine-base": (_machine("base"), None),
    "machine-gals5": (_machine("gals5"), None),
    # scripted mid-run retimes, alone and racing telemetry flushes
    "retime": (_scripted_gals5(RETIMES),
               lambda r: r.domain_cycles["fp"] < r.domain_cycles["decode"]),
    "retime-storm": (_scripted_gals5(RETIME_STORM), None),
    "retime-flush-storm": (_scripted_gals5(FLUSH_STORM_RETIMES, 400,
                                           observe=(4.1, 13.7)),
                           lambda r: r.recoveries > 0),
}

#: case -> (committed_instructions, elapsed_ns, total_energy_nj, digest,
#: engine events processed)
PINS = {
    "base": (
        500, 179.0, 3833.7667924263424,
        "7aab6caba1e4c2093a79362b44dbaeec60b5e288b7c7dab5ce09b3f3718e8304", 180),
    "gals5": (
        500, 228.7579544029403, 4022.2744390169373,
        "5cb1fa8ac6c802e98044c065ea8284d6e37013476ffe3d719ba09ce237d1ae6d", 1144),
    "fem3": (
        500, 227.7579544029403, 3956.9512290646417,
        "14a4daee3a5222f938512a9efdd66292c0672778173ccfc765dacefd4dbc6184", 683),
    "memsplit2": (
        500, 226.84442185152506, 3889.684747705899,
        "1e5a25bdd057b0bccf93a87a2ae83c1a13381124e28132a345b45fb8d720ded3", 454),
    "alu4": (
        500, 230.7579544029403, 4037.0991693045753,
        "f418485f1b4f8721201be6fdb50454dcebbb083e7bc7df02c95f6dc296bbfef1", 923),
    "frontback2": (
        500, 181.84442185152506, 3576.5071739730906,
        "6eea672a7f1adaaecfbedbf1dd537c5ab0748e4b268744d43f596353b9b56e81", 364),
    "dotprod-gals5": (
        500, 142.7579544029403, 3138.3805938247506,
        "fd933e50ff8ce5304415370118a8588886fa13b5d2f4f0d00ef7b848c94859ac", 714),
    "gals5-phased-osc": (
        500, 203.7579544029403, 3870.1598394702846,
        "a0616aaa632ab143df58c774c411186493c2e7d33ac4a9d03b71335e7657c1f3", 1019),
    "gals5-2500": (
        2500, 1160.7579544029404, 21017.345551457125,
        "2c74e4eef3cb3a6fa35c66c1453aaec03ada3fbe9e6e99555db234e8739f6670", 5804),
    "gals5-perl-occupancy-800": (
        800, 353.7579544029403, 6046.60885737493,
        "1d8dff2b3de21dc716941ecc7994e819e823d407d42c8cfe10d19ff2cc502f6c", 1569),
    "gals5-tomcatv-occupancy": (
        400, 216.7579544029403, 2857.0105312913984,
        "656ce2ceea9e8d19a473492543bbaa7c5c83c7705f66ee727084df699744c09b", 955),
    "cluster2": (
        250, 122.7579544029403, 2273.763034157761,
        "e8fd10be24434c9486de53c38db100d017acbb69211a1fe2f74f435b9c55344a", 859),
    "retime": (
        500, 266.7579544029403, 4210.426373481094,
        "6e820cd8fbe75dbb7b50216dfdf61754bdda16c3965064ff59ec98eae69e9232", 1269),
    "retime-storm": (
        500, 251.7579544029403, 4090.5829793429743,
        "d5083255779dedf728abeeb8899bf96d5c17b0f4c090f83196b6a4a9c1ce3007", 1185),
    "retime-flush-storm": (
        400, 208.7579544029403, 3374.9046411837944,
        "826ba7ad43c58f75bc83c1f504a85695b73b08412366b135afcf2330f6c7a22e", 1019),
}
# the processor built straight from a topology name must match the
# scenario path that names the same machine
PINS["machine-base"] = PINS["base"]
PINS["machine-gals5"] = PINS["gals5"]


def _run_counting_events(run):
    """``run()``'s result and the event count of the one processor it ran."""
    engines = []
    original = Processor.run

    def recording_run(machine, *args, **kwargs):
        engines.append(machine.engine)
        return original(machine, *args, **kwargs)

    Processor.run = recording_run
    try:
        result = run()
    finally:
        Processor.run = original
    (engine,) = engines
    return result, engine.events_processed


def assert_pinned(case):
    """Run ``case`` and require its pinned result, bit for bit, and its
    pinned engine work (events processed)."""
    run, exercised = CASES[case]
    result, events = _run_counting_events(run)
    committed, elapsed_ns, energy_nj, digest, pinned_events = PINS[case]
    assert events == pinned_events
    assert result.committed_instructions == committed
    assert result.elapsed_ns == elapsed_ns
    assert result.total_energy_nj == energy_nj
    assert result_digest(result) == digest
    if exercised is not None:
        assert exercised(result)


#: the cases no other module asserts: the remaining registered partitions
#: and the phased workload.  Every other case is asserted by the test that
#: once ran it as a differential against a deleted reference.
@pytest.mark.parametrize("case", ["alu4", "frontback2", "gals5-phased-osc"])
def test_pinned_run(case):
    assert_pinned(case)
