"""Tests for DVFS policies and the experiment drivers (paper Section 5.2)."""

import pytest

from repro.core.dvfs import (GCC_GALS_1, GCC_GALS_2, GENERIC_SLOWDOWN, IJPEG_SWEEP,
                             PERL_FP_BY_3, POLICIES, SlowdownPolicy, get_policy,
                             recommend_policy)
from repro.core.experiments import (DvfsResult, average_energy_increase,
                                    average_performance_drop,
                                    average_power_saving, baseline_comparison,
                                    phase_sensitivity, run_single,
                                    slowdown_sweep)
from repro.core.domains import slowdown_plan
from repro.core.metrics import ComparisonRow, arithmetic_mean, compare
from repro.core.scenario import Scenario, run_scenario, sweep_scenarios
from repro.power.technology import DEFAULT_TECHNOLOGY
from repro.power.voltage import ideal_synchronous_energy
from repro.workloads.profiles import get_profile


# ------------------------------------------------------------------- policies
def test_paper_policies_are_registered():
    assert get_policy("generic") is GENERIC_SLOWDOWN
    assert get_policy("gals-1") is GCC_GALS_1
    assert get_policy("gals-2") is GCC_GALS_2
    assert get_policy("perl-fp3") is PERL_FP_BY_3
    assert len([p for p in POLICIES if p.startswith("gals-")]) >= 5
    with pytest.raises(KeyError):
        get_policy("turbo")


def test_figure11_policy_matches_paper_description():
    slowdowns = GENERIC_SLOWDOWN.slowdowns
    assert slowdowns["fetch"] == pytest.approx(1.10)
    assert slowdowns["memory"] == pytest.approx(1.10)
    assert slowdowns["fp"] == pytest.approx(1.50)


def test_figure12_sweep_covers_four_memory_slowdowns():
    memory_factors = [policy.slowdowns.get("memory", 1.0) for policy in IJPEG_SWEEP]
    assert memory_factors == pytest.approx([1.0, 1.10, 1.20, 1.50])
    for policy in IJPEG_SWEEP:
        assert policy.slowdowns["fetch"] == pytest.approx(1.10)
        assert policy.slowdowns["fp"] == pytest.approx(1.20)


def test_figure13_gals2_slows_fp_by_factor_three():
    assert GCC_GALS_2.slowdowns["fp"] == pytest.approx(3.0)


def test_policy_validation():
    with pytest.raises(ValueError):
        SlowdownPolicy("bad", "", {"gpu": 2.0})
    with pytest.raises(ValueError):
        SlowdownPolicy("bad", "", {"fp": 0.5})


def test_policy_plan_and_voltages():
    plan = slowdown_plan(GENERIC_SLOWDOWN.slowdowns)
    assert plan.scale_voltages
    assert plan.voltage_of("fp") < plan.voltage_of("fetch") < plan.voltage_of(
        "integer") == DEFAULT_TECHNOLOGY.nominal_vdd
    voltages = GENERIC_SLOWDOWN.voltages()
    assert voltages["fp"] < voltages["fetch"] < DEFAULT_TECHNOLOGY.nominal_vdd


def test_recommend_policy_follows_application_characteristics():
    perl_policy = recommend_policy(get_profile("perl"))
    assert perl_policy.slowdowns["fp"] == pytest.approx(3.0)
    swim_policy = recommend_policy(get_profile("swim"))
    assert "fp" not in swim_policy.slowdowns or swim_policy.slowdowns["fp"] < 2.0
    assert "fetch" in swim_policy.slowdowns  # swim has very few branches


# ------------------------------------------------------------------ experiments
def test_run_single_rejects_unknown_processor_kind():
    with pytest.raises(ValueError):
        run_single("perl", processor="quantum", num_instructions=100)


def test_run_pair_returns_comparison_row(perl_pair):
    assert isinstance(perl_pair, ComparisonRow)
    assert perl_pair.benchmark == "perl"
    assert perl_pair.base_result.processor == "base"
    assert perl_pair.gals_result.processor == "gals"


def test_baseline_comparison_and_averages():
    rows = baseline_comparison(["adpcm", "epic"], num_instructions=400)
    assert [row.benchmark for row in rows] == ["adpcm", "epic"]
    drop = average_performance_drop(rows)
    saving = average_power_saving(rows)
    energy = average_energy_increase(rows)
    assert -0.05 < drop < 0.5
    assert -0.05 < saving < 0.5
    assert -0.3 < energy < 0.3


def test_selective_slowdown_gcc_case_study(gcc_dvfs_result):
    """Figure 13 shape: slowing gcc's FP clock costs little performance and
    saves power once voltages scale."""
    result = gcc_dvfs_result
    assert result.policy == "gals-1"
    assert 0.6 < result.relative_performance < 1.0
    assert result.relative_power < 1.0
    assert result.relative_energy < 1.1
    # the "ideal" reference is a voltage-scaled synchronous machine at the
    # same performance, so it is always at least as good as doing nothing
    assert result.ideal_energy <= 1.0
    assert result.performance_drop == pytest.approx(1 - result.relative_performance)
    assert result.power_saving == pytest.approx(1 - result.relative_power)


def test_phase_sensitivity_reports_small_spread():
    report = phase_sensitivity("adpcm", phase_seeds=(0, 1, 2),
                               num_instructions=400)
    assert set(report) == {"phase-0", "phase-1", "phase-2", "spread"}
    assert report["spread"] < 0.08
    for key, value in report.items():
        if key != "spread":
            assert 0.5 < value <= 1.05


def test_policy_projection_onto_topologies():
    """Per-block policies project onto any topology's domains (max wins)."""
    from repro.core.domains import get_topology
    from repro.core.dvfs import GENERIC_SLOWDOWN

    # gals5 is the identity: the projection equals the policy itself
    gals5 = get_topology("gals5")
    assert GENERIC_SLOWDOWN.project_onto(gals5) == dict(
        GENERIC_SLOWDOWN.slowdowns)
    # frontback2 merges fetch into 'front' and fp/memory into 'back';
    # the back domain takes the largest member slowdown (fp's 1.5)
    front_back = get_topology("frontback2")
    assert GENERIC_SLOWDOWN.project_onto(front_back) == {
        "front": 1.10, "back": 1.50}
    plan = Scenario(name="generic-frontback2", topology="frontback2",
                    policy="generic").build_plan()
    assert plan.slowdowns == {"front": 1.10, "back": 1.50}
    assert plan.voltage_of("back") < plan.voltage_of("front")


# --------------------------------------------------- drivers as scenario grids
PIN_INSTRUCTIONS = 300


def _result(topology, workload, **fields):
    """One run built the way the scenario prototype builds it."""
    return run_scenario(Scenario(
        name="pin", topology=topology, workload=workload,
        num_instructions=PIN_INSTRUCTIONS, **fields)).result


def _baseline_case():
    benchmarks = ("perl", "adpcm")
    expected = [compare(_result("base", benchmark), _result("gals5", benchmark))
                for benchmark in benchmarks]
    return (lambda: baseline_comparison(
        benchmarks, num_instructions=PIN_INSTRUCTIONS, jobs=2),
        expected, 2 * len(benchmarks))


def _slowdown_sweep_case():
    policies = (GCC_GALS_1, GCC_GALS_2, IJPEG_SWEEP[0])
    base = _result("base", "gcc")
    expected = []
    for policy in policies:
        gals = _result("gals5", "gcc", slowdowns=dict(policy.slowdowns))
        performance = base.elapsed_ns / gals.elapsed_ns
        expected.append(DvfsResult(
            "gcc", policy.name, performance,
            gals.total_energy_nj / base.total_energy_nj,
            gals.average_power_w / base.average_power_w,
            ideal_synchronous_energy(min(1.0, performance),
                                     DEFAULT_TECHNOLOGY),
            gals, base))
    return (lambda: slowdown_sweep(
        "gcc", policies, num_instructions=PIN_INSTRUCTIONS, jobs=2),
        expected, len(policies) + 1)


def _phase_sensitivity_case():
    phase_seeds = (0, 1, 2)
    base = _result("base", "adpcm")
    expected = {f"phase-{phase_seed}": base.elapsed_ns / _result(
        "gals5", "adpcm", phase_seed=phase_seed).elapsed_ns
        for phase_seed in phase_seeds}
    values = list(expected.values())
    expected["spread"] = (max(values) - min(values)) / arithmetic_mean(values)
    return (lambda: phase_sensitivity(
        "adpcm", phase_seeds, num_instructions=PIN_INSTRUCTIONS, jobs=2),
        expected, len(phase_seeds) + 1)


@pytest.mark.parametrize("case", [
    _baseline_case, _slowdown_sweep_case, _phase_sensitivity_case,
], ids=["baseline_comparison", "slowdown_sweep", "phase_sensitivity"])
def test_fan_out_drivers_are_one_scenario_grid(monkeypatch, case):
    """Each fan-out driver is one sweep_scenarios grid whose reduction equals
    the same reduction over per-scenario run_scenario results."""
    from repro.core import experiments

    grids = []

    def recording_sweep(scenarios, **keywords):
        grids.append(len(scenarios))
        return sweep_scenarios(scenarios, **keywords)

    monkeypatch.setattr(experiments, "sweep_scenarios", recording_sweep)
    run, expected, grid_size = case()
    assert run() == expected
    assert grids == [grid_size]
