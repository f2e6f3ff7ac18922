"""Integration tests: the 5-domain GALS processor and base-vs-GALS behaviour."""

import pytest

from repro.core.config import ProcessorConfig
from repro.core.domains import GALS_DOMAINS, uniform_plan
from repro.core.processor import Processor
from repro.workloads.synthetic import make_workload


def run_gals(benchmark="perl", instructions=600, plan=None, config=None):
    workload = make_workload(benchmark, seed=1)
    trace = workload.trace(instructions)
    processor = Processor(trace, workload=workload, topology="gals5",
                          plan=plan or uniform_plan(),
                          config=config or ProcessorConfig())
    return processor, processor.run()


def test_gals_commits_every_instruction(perl_gals):
    assert perl_gals.processor == "gals"
    assert perl_gals.committed_instructions == 900


def test_gals_has_five_clock_domains(perl_gals):
    assert set(perl_gals.domain_cycles) == set(GALS_DOMAINS)
    for cycles in perl_gals.domain_cycles.values():
        assert cycles > 0


def test_gals_is_slower_than_base(perl_pair):
    assert perl_pair.relative_performance < 1.0
    # the paper reports 5-15% slowdowns; allow a generous band around it
    assert 0.60 < perl_pair.relative_performance < 1.0


def test_gals_per_cycle_power_is_lower(perl_pair):
    assert perl_pair.relative_power < 1.0


def test_gals_energy_is_not_dramatically_lower(perl_pair):
    """The paper's headline: eliminating the global clock does not buy large
    energy savings once the longer run time is accounted for."""
    assert perl_pair.relative_energy > 0.85


def test_gals_spends_time_in_fifos(perl_gals):
    assert perl_gals.mean_fifo_time_ns > 0
    assert 0.0 < perl_gals.fifo_slip_fraction < 0.9


def test_gals_breakdown_has_no_global_clock_but_has_fifos(perl_gals):
    breakdown = perl_gals.energy
    assert breakdown.by_category.get("Global clock", 0.0) == 0.0
    assert breakdown.by_category.get("FIFOs", 0.0) > 0.0
    assert breakdown.by_category.get("Domain clocks", 0.0) > 0.0


def test_gals_speculation_does_not_decrease(perl_pair):
    assert perl_pair.gals_misspeculation >= perl_pair.base_misspeculation - 0.02


def test_gals_slip_grows_for_integer_code(perl_pair):
    assert perl_pair.slip_ratio > 1.0


def test_fpppp_is_least_affected(perl_pair, fpppp_pair):
    """fpppp's tiny branch fraction makes it the least-hit benchmark (Fig. 5)."""
    assert fpppp_pair.relative_performance > perl_pair.relative_performance
    assert fpppp_pair.relative_performance > 0.93


def test_gals_phase_changes_performance_only_slightly():
    _, a = run_gals(instructions=500, plan=uniform_plan(phase_seed=0))
    _, b = run_gals(instructions=500, plan=uniform_plan(phase_seed=3))
    assert a.committed_instructions == b.committed_instructions
    variation = abs(a.elapsed_ns - b.elapsed_ns) / a.elapsed_ns
    assert variation < 0.05


def test_gals_all_domains_at_nominal_voltage_by_default(perl_gals):
    for voltage in perl_gals.domain_voltages.values():
        assert voltage == pytest.approx(1.5)


def test_gals_respects_per_domain_slowdown():
    from repro.core.domains import slowdown_plan
    plan = slowdown_plan({"fp": 2.0}, scale_voltages=True)
    processor, result = run_gals(benchmark="perl", instructions=400, plan=plan)
    assert result.domain_voltages["fp"] < 1.5
    assert result.domain_voltages["integer"] == pytest.approx(1.5)
    # the fp domain ticked roughly half as often as the integer domain
    assert result.domain_cycles["fp"] < 0.7 * result.domain_cycles["integer"]


def test_gals_conservative_fifo_interface_is_slower():
    fast_cfg = ProcessorConfig()
    slow_cfg = ProcessorConfig(fifo_sync_cycles=2, forwarding_sync_cycles=2.0)
    _, fast = run_gals(instructions=400, config=fast_cfg)
    _, slow = run_gals(instructions=400, config=slow_cfg)
    assert slow.elapsed_ns > fast.elapsed_ns
