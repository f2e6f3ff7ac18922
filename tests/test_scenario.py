"""Tests for the declarative Scenario subsystem.

Covers the registries, the single run path's bit-identity with the golden
seed values, JSON round-tripping of scenarios and results, determinism, and
the parallel sweep.
"""

import json
from dataclasses import asdict, replace

import pytest

from repro.core.scenario import (Scenario, ScenarioResult, available_scenarios,
                                 get_scenario, register_scenario, run_scenario,
                                 sweep_scenarios)
from tests.test_golden_regression import GOLDEN

SMALL = 250


# ------------------------------------------------------------------- registry
def test_registered_scenarios_cover_all_topologies():
    names = available_scenarios()
    for required in ("base", "gals5", "frontback2", "fem3", "alu4"):
        assert required in names


def test_get_scenario_unknown_raises():
    with pytest.raises(KeyError):
        get_scenario("no-such-scenario")


def test_register_scenario_rejects_duplicates():
    with pytest.raises(ValueError):
        register_scenario(Scenario(name="base"))


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(name="")
    with pytest.raises(ValueError):
        Scenario(name="x", num_instructions=0)
    with pytest.raises(ValueError):
        Scenario(name="x", base_period=0.0)


# ------------------------------------------------------------- golden identity
def test_registered_base_and_gals5_scenarios_reproduce_seed_goldens():
    """The scenario path must replay the seed tree's exact floats."""
    for (kind, benchmark, instructions), expected in GOLDEN.items():
        scenario_name = "base" if kind == "base" else "gals5"
        outcome = run_scenario(scenario_name, workload=benchmark,
                               num_instructions=instructions)
        result = outcome.result
        assert result.committed_instructions == expected["committed_instructions"]
        # exact float equality on purpose: the contract is bit-identity
        assert result.elapsed_ns == expected["elapsed_ns"]
        assert result.ipc == expected["ipc"]
        assert result.mean_slip_ns == expected["mean_slip_ns"]
        assert result.total_energy_nj == expected["total_energy_nj"]
        assert result.domain_cycles == expected["domain_cycles"]


def test_run_scenario_is_deterministic():
    first = run_scenario("fem3", num_instructions=SMALL)
    second = run_scenario("fem3", num_instructions=SMALL)
    assert first.result == second.result


# --------------------------------------------------------------- serialization
def test_scenario_json_round_trip_is_equal():
    scenario = Scenario(
        name="roundtrip", topology="alu4", workload="gcc",
        policy="generic", num_instructions=SMALL, seed=7, phase_seed=3,
        slowdowns={"memory": 1.25}, phases={"fetch": 0.4},
        config={"rob_entries": 48}, description="round-trip fixture")
    reloaded = Scenario.from_json(scenario.to_json())
    assert reloaded == scenario


#: A scenario setting every container field, with nested controller args.
CONTAINER_SCENARIO = Scenario(
    name="containers", topology="gals5", policy="generic",
    slowdowns={"fp": 1.5}, phases={"fetch": 0.25},
    config={"rob_entries": 48}, controller="pid",
    controller_args={"setpoint": 2.0, "gains": [[1.0, 0.5], [0.1]]})


@pytest.mark.parametrize("name", [*available_scenarios(), "containers"])
def test_to_dict_equals_asdict(name):
    scenario = (CONTAINER_SCENARIO if name == "containers"
                else get_scenario(name))
    assert scenario.to_dict() == asdict(scenario)


def test_to_dict_copies_nested_containers():
    first = CONTAINER_SCENARIO.to_dict()
    first["slowdowns"]["fp"] = 9.0
    first["controller_args"]["gains"][0].append(7.0)
    second = CONTAINER_SCENARIO.to_dict()
    assert CONTAINER_SCENARIO.slowdowns == {"fp": 1.5}
    assert second["slowdowns"] == {"fp": 1.5}
    assert CONTAINER_SCENARIO.controller_args["gains"] == [[1.0, 0.5], [0.1]]
    assert second["controller_args"]["gains"] == [[1.0, 0.5], [0.1]]


def test_scenario_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError):
        Scenario.from_dict({"name": "x", "warp_factor": 9})


def test_serialized_scenario_runs_identically():
    scenario = replace(get_scenario("gals5-perl-fp3"), num_instructions=SMALL)
    reloaded = Scenario.from_json(scenario.to_json())
    assert run_scenario(reloaded).result == run_scenario(scenario).result


def test_scenario_result_json_round_trip():
    outcome = run_scenario("gals5", num_instructions=SMALL)
    reloaded = ScenarioResult.from_json(outcome.to_json())
    assert reloaded.scenario == outcome.scenario
    assert reloaded.result == outcome.result
    assert reloaded.result.total_energy_nj == outcome.result.total_energy_nj


def test_scenario_result_json_matches_json_dumps():
    outcome = run_scenario("gals5-perl-fp3", num_instructions=SMALL)
    assert outcome.to_json() == json.dumps(
        outcome.to_dict(), indent=2, sort_keys=True)


# ------------------------------------------------------------------ semantics
def test_policy_scenario_scales_voltage_of_slowed_domain():
    outcome = run_scenario("gals5-perl-fp3", num_instructions=SMALL)
    voltages = outcome.result.domain_voltages
    assert voltages["fp"] < voltages["integer"]


def test_policy_projects_onto_coarse_topology_domains():
    """On a merged topology the slowed block drags its whole domain."""
    scenario = Scenario(name="fp3-on-alu4", topology="alu4", workload="perl",
                        policy="perl-fp3", num_instructions=SMALL)
    plan = scenario.build_plan()
    # perl-fp3 slows the fp block by 3x; on alu4 the fp block lives in 'alu'
    assert plan.slowdowns == {"alu": 3.0}


def test_explicit_slowdowns_override_policy():
    scenario = Scenario(name="override", topology="gals5", workload="perl",
                        policy="perl-fp3", slowdowns={"fp": 1.5})
    assert scenario.build_plan().slowdowns == {"fp": 1.5}


def test_unknown_slowdown_domain_rejected():
    scenario = Scenario(name="bad-domain", topology="base",
                        slowdowns={"fp": 2.0})
    with pytest.raises(ValueError):
        scenario.build_plan()


def test_unknown_phase_domain_rejected():
    """A typo in phases must fail loudly, not silently draw a random phase."""
    scenario = Scenario(name="bad-phase", topology="gals5",
                        phases={"fetchh": 0.3})
    with pytest.raises(ValueError, match="fetchh"):
        scenario.build_plan()


def test_config_overrides_reach_the_machine():
    narrow = run_scenario("base", num_instructions=SMALL,
                          config={"fetch_width": 1, "decode_width": 1,
                                  "dispatch_width": 1, "commit_width": 1})
    wide = run_scenario("base", num_instructions=SMALL)
    assert narrow.result.elapsed_ns > wide.result.elapsed_ns


def test_nested_config_keys_reach_the_machine():
    poor_gating = run_scenario("base", num_instructions=SMALL,
                               config={"technology.idle_power_fraction": 0.25})
    small_l1 = run_scenario("base", num_instructions=SMALL,
                            config={"memory.dl1_size": 1024})
    default = run_scenario("base", num_instructions=SMALL)
    assert poor_gating.result.total_energy_nj > default.result.total_energy_nj
    assert small_l1.result.elapsed_ns > default.result.elapsed_ns


@pytest.mark.parametrize("config, field", [
    ({"predictor_kind": "bogus"}, "predictor_kind"),
    ({"memory.replacement": "bogus"}, "replacement"),
], ids=["predictor-kind", "replacement"])
def test_validate_refuses_what_the_machine_cannot_build(config, field):
    """A scenario that validates, runs: component names the processor's
    factories do not know are refused by validate(), not at run time."""
    with pytest.raises(ValueError, match=field):
        Scenario(name="bogus-component", config=config).validate()
    # the names those factories do know (in any case) validate
    Scenario(name="known", config={"predictor_kind": "GShare",
                                   "memory.replacement": "fifo"}).validate()


def test_config_overrides_inverts_build_config():
    from repro.core.config import DEFAULT_CONFIG, ProcessorConfig
    from repro.core.scenario import config_overrides
    from repro.memory.hierarchy import MemoryHierarchyConfig
    from repro.power.technology import TechnologyParameters

    config = ProcessorConfig(
        fetch_width=2, memory=MemoryHierarchyConfig(l2_latency=9),
        technology=TechnologyParameters(alpha=1.2, idle_power_fraction=0.0))
    overrides = config_overrides(config)
    assert overrides == {"fetch_width": 2, "memory.l2_latency": 9,
                         "technology.alpha": 1.2,
                         "technology.idle_power_fraction": 0.0}
    assert Scenario(name="x", config=overrides).build_config() == config
    assert config_overrides(DEFAULT_CONFIG) == {}


def test_kernel_workload_scenario_runs():
    outcome = run_scenario("dotprod-gals5", kernel_size=16,
                           num_instructions=400)
    assert outcome.result.committed_instructions > 0
    assert outcome.result.processor == "gals"


# ---------------------------------------------------------------------- sweep
def _miss_registry_in_workers(scenario):
    """timed_run_scenario as a spawn-start worker lacking a runtime
    registration sees it: a KeyError in pool workers, a run in the parent."""
    from repro.exec.backends import run_scenario
    from repro.exec.faults import current_role

    if current_role() == "worker":
        raise KeyError(f"unknown DVFS policy 'auto-{scenario.workload}'")
    return run_scenario(scenario), 0.0


def test_sweep_falls_back_to_serial_when_workers_lack_registrations(
        monkeypatch):
    """Runtime-registered registry entries are invisible to spawn/forkserver
    pool workers; the local backend must rerun those scenarios in the
    parent, which can resolve them."""
    monkeypatch.setattr("repro.exec.backends.timed_run_scenario",
                        _miss_registry_in_workers)
    names = ["base", "gals5"]
    results = sweep_scenarios(names, jobs=2, num_instructions=SMALL)
    assert [item.scenario.name for item in results] == names
    for item in results:
        assert item.result == run_scenario(item.scenario).result


def test_uncached_sweep_writes_nothing_to_the_default_store(
        monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    sweep_scenarios(["base", "gals5"], jobs=2, num_instructions=SMALL)
    assert list(tmp_path.iterdir()) == []


def test_sweep_matches_individual_runs_and_parallel_is_serial():
    names = ["base", "gals5", "frontback2"]
    serial = sweep_scenarios(names, jobs=1, num_instructions=SMALL)
    parallel = sweep_scenarios(names, jobs=2, num_instructions=SMALL)
    assert [item.scenario.name for item in serial] == names
    for one, two in zip(serial, parallel):
        assert one.result == two.result
    single = run_scenario("gals5", num_instructions=SMALL)
    assert serial[1].result == single.result
