"""A finished machine is freed when its run returns.

A ``Processor`` is one large reference cycle (clock domains, edge ticks,
stage closures, the power accountant's probes), so reference counting alone
never frees it.  ``execute_run`` keeps automatic collection off from
construction to the result and then frees the machine with one
young-generation collection; without that, each machine of a long-lived
process (a sweep worker, the service's drain thread) waits for a full
collection, and peak memory climbs run after run.
"""

import gc
import tracemalloc
import weakref
from dataclasses import replace

import pytest

from repro.core import scenario as scenario_module
from repro.core.scenario import get_scenario, run_scenario

INSTRUCTIONS = 500

#: A one-domain, a GALS, a controller, a phased and a kernel scenario.
SCENARIOS = ["base", "gals5", "gals5-perl-occupancy", "gals5-phased-osc",
             "dotprod-gals5"]


@pytest.fixture
def machines(monkeypatch):
    """Weak references to every processor built, and the collector's state
    seen while each was built and run."""
    built = []
    seen = []
    base = scenario_module.Processor

    class Watched(base):
        def __init__(self, *args, **kwargs):
            seen.append(("build", gc.isenabled()))
            super().__init__(*args, **kwargs)
            built.append(weakref.ref(self))

        def run(self, *args, **kwargs):
            seen.append(("run", gc.isenabled()))
            return super().run(*args, **kwargs)
    monkeypatch.setattr(scenario_module, "Processor", Watched)
    return built, seen


@pytest.mark.parametrize("name", SCENARIOS)
def test_machine_is_freed_when_its_run_returns(machines, name):
    built, seen = machines
    assert gc.isenabled()
    outcome = run_scenario(replace(get_scenario(name),
                                   num_instructions=INSTRUCTIONS))
    assert outcome.result.committed_instructions == INSTRUCTIONS
    assert len(built) == 1
    assert built[0]() is None
    # no automatic collection during build or run, and it is back on after
    assert seen == [("build", False), ("run", False)]
    assert gc.isenabled()


def test_caller_that_turned_collection_off_keeps_it_off(machines):
    built, seen = machines
    gc.disable()
    try:
        run_scenario(replace(get_scenario("gals5"),
                             num_instructions=INSTRUCTIONS))
        assert not gc.isenabled()
        # nothing was collected for the caller: the machine is still there
        assert built[0]() is not None
    finally:
        gc.enable()
    assert seen == [("build", False), ("run", False)]


def test_collection_is_back_on_after_a_failed_build(monkeypatch):
    def failing_build(*args, **kwargs):
        raise RuntimeError("no machine")
    monkeypatch.setattr(scenario_module, "Processor", failing_build)
    with pytest.raises(RuntimeError, match="no machine"):
        run_scenario(replace(get_scenario("gals5"),
                             num_instructions=INSTRUCTIONS))
    assert gc.isenabled()


def test_repeated_runs_hold_no_memory():
    """Five runs of one scenario end at the first run's traced memory; each
    machine left behind would add about 220 KiB at this length."""
    scenario = replace(get_scenario("gals5"), num_instructions=INSTRUCTIONS)
    tracemalloc.start()
    try:
        run_scenario(scenario)
        first = tracemalloc.get_traced_memory()[0]
        for _ in range(4):
            run_scenario(scenario)
        last = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert last - first < 64 * 1024, (first, last)
