"""Integration tests: the synchronous (base) processor end to end."""

import pytest

from repro.core.config import ProcessorConfig
from repro.core.processor import Processor
from repro.workloads.kernels import kernel_trace
from repro.workloads.synthetic import make_workload


def run_base(benchmark="perl", instructions=600, config=None, **kwargs):
    workload = make_workload(benchmark, seed=1)
    trace = workload.trace(instructions)
    processor = Processor(trace, workload=workload, topology="base",
                          config=config or ProcessorConfig(), **kwargs)
    return processor, processor.run()


def test_base_processor_commits_every_instruction(perl_base):
    assert perl_base.processor == "base"
    assert perl_base.committed_instructions == 900
    assert perl_base.elapsed_ns > 0
    assert 0.3 < perl_base.ipc < 4.0


def test_base_processor_slip_and_energy_positive(perl_base):
    assert perl_base.mean_slip_ns > 0
    assert perl_base.total_energy_nj > 0
    assert perl_base.average_power_w > 0
    # a single-clock machine spends no time in mixed-clock FIFOs
    assert perl_base.mean_fifo_time_ns == pytest.approx(0.0)
    assert perl_base.fifo_slip_fraction == pytest.approx(0.0)


def test_base_breakdown_includes_global_clock_and_sums(perl_base):
    breakdown = perl_base.energy
    assert breakdown.by_category.get("Global clock", 0.0) > 0
    assert breakdown.by_category.get("FIFOs", 0.0) == 0.0
    assert sum(breakdown.by_block.values()) == pytest.approx(
        breakdown.total_energy_nj, rel=1e-9)
    assert sum(breakdown.by_category.values()) == pytest.approx(
        breakdown.total_energy_nj, rel=1e-9)
    # the global clock grid should be a visible but not dominant share
    assert 0.03 < breakdown.category_share("Global clock") < 0.30


def test_base_single_domain_clocking(perl_base):
    assert set(perl_base.domain_cycles) == {"core"}
    assert perl_base.domain_cycles["core"] > 0
    assert perl_base.domain_voltages["core"] == pytest.approx(1.5)


def test_base_statistics_are_consistent(perl_base):
    assert perl_base.fetched_instructions >= perl_base.committed_instructions
    assert 0.0 <= perl_base.misspeculated_fraction < 0.6
    assert 0.0 <= perl_base.branch_misprediction_rate < 0.4
    assert 0.0 <= perl_base.dcache_miss_rate < 0.5
    assert perl_base.mean_rob_occupancy > 0
    assert perl_base.mean_int_regs_in_use >= 32


def test_processor_cannot_run_twice():
    processor, _ = run_base(instructions=150)
    with pytest.raises(RuntimeError):
        processor.run()


def test_base_runs_kernel_traces():
    trace = kernel_trace("vector_sum", 40)
    processor = Processor(trace, topology="base")
    result = processor.run()
    assert result.committed_instructions == len(trace)
    assert result.ipc > 0.3
    # the kernel is a tight loop: its conditional branch is strongly biased
    assert result.branch_misprediction_rate < 0.3


def test_base_fp_kernel_uses_fp_cluster():
    trace = kernel_trace("saxpy", 30)
    processor = Processor(trace, topology="base")
    result = processor.run()
    assert result.committed_instructions == len(trace)
    assert processor.exec_units["fp"].issued_ops > 0
    assert processor.exec_units["mem"].issued_ops > 0


def test_mispredictions_trigger_recoveries(perl_base, perl_pair):
    # perl has enough hard branches that at least some recoveries happen
    assert perl_base.recoveries > 0
    assert perl_base.wrong_path_fetched > 0


def test_cold_caches_slow_the_machine_down():
    _, warm = run_base(instructions=400)
    _, cold = run_base(instructions=400,
                       config=ProcessorConfig(warm_caches=False))
    assert cold.elapsed_ns > warm.elapsed_ns
    assert cold.icache_miss_rate >= warm.icache_miss_rate


def test_smaller_rob_reduces_performance():
    _, big = run_base(benchmark="swim", instructions=400)
    _, small = run_base(benchmark="swim", instructions=400,
                        config=ProcessorConfig(rob_entries=8))
    assert small.elapsed_ns > big.elapsed_ns


def test_committed_mix_contains_expected_classes(perl_base, perl_pair):
    # reconstruct from the stats the commit unit collected
    classes = perl_pair.base_result
    assert classes.committed_instructions == 900
