"""Unit tests for simulation statistics, results and comparisons."""

import pytest

from repro.core.metrics import (SimulationResult, SimulationStats,
                                arithmetic_mean, compare, geometric_mean)
from repro.isa.instructions import InstructionClass
from repro.isa.trace import TraceInstruction
from repro.uarch.instruction import DynamicInstruction
from repro.uarch.regfile import PhysicalRegisterFile
from repro.uarch.rob import ReorderBuffer
from test_rob_issue_queue import make_commit_unit


def make_committed_instruction(fetch_time, commit_time, fifo_time=0.0,
                               opclass=InstructionClass.INT_ALU):
    trace = TraceInstruction(index=0, pc=0x400000, opclass=opclass,
                             is_branch=opclass is InstructionClass.BRANCH)
    instr = DynamicInstruction(trace, epoch=0)
    instr.fetch_time = fetch_time
    instr.commit_time = commit_time
    instr.fifo_time = fifo_time
    return instr


def make_result(processor="base", benchmark="perl", elapsed=1000.0, energy_nj=5000.0,
                slip=10.0, fifo=0.0, misspec=0.1):
    from repro.power.accounting import EnergyBreakdown
    breakdown = EnergyBreakdown(by_block={"alu": energy_nj},
                                by_category={"ALUs": energy_nj},
                                total_energy_nj=energy_nj, elapsed_ns=elapsed)
    return SimulationResult(
        processor=processor, benchmark=benchmark, committed_instructions=1000,
        elapsed_ns=elapsed, reference_cycles=elapsed, ipc=1000 / elapsed,
        mean_slip_ns=slip, mean_fifo_time_ns=fifo,
        misspeculated_fraction=misspec, fetched_instructions=1200,
        wrong_path_fetched=int(1200 * misspec), branch_misprediction_rate=0.05,
        icache_miss_rate=0.01, dcache_miss_rate=0.02, l2_miss_rate=0.2,
        mean_rob_occupancy=20.0, mean_int_regs_in_use=40.0,
        mean_fp_regs_in_use=33.0, energy=breakdown)


def test_stats_record_commit_and_averages():
    stats = SimulationStats()
    stats.record_commit(make_committed_instruction(0.0, 10.0, fifo_time=2.0), 10.0)
    stats.record_commit(make_committed_instruction(5.0, 25.0, fifo_time=4.0), 25.0)
    assert stats.committed == 2
    assert stats.mean_slip == pytest.approx(15.0)
    assert stats.mean_fifo_time == pytest.approx(3.0)
    assert stats.last_commit_time == pytest.approx(25.0)
    assert stats.committed_by_class["int_alu"] == 2


def test_stats_occupancy_sampling():
    stats = SimulationStats()
    rob = ReorderBuffer(capacity=8)
    regfile = PhysicalRegisterFile()           # 32 + 32 architectural
    commit = make_commit_unit(rob, regfile, stats)
    commit.clock_edge(0, 0.0)
    for _ in range(2):
        rob.allocate(make_committed_instruction(0.0, -1.0))
        regfile.allocate(for_fp=False)
    regfile.allocate(for_fp=True)
    for cycle in (1, 2, 3):                    # one sample + a deferred run
        commit.clock_edge(cycle, float(cycle))
    commit.flush_samples()
    assert stats.occupancy_samples == 4
    assert stats.mean_rob_occupancy == pytest.approx(1.5)
    assert stats.mean_int_regs_in_use == pytest.approx(33.5)
    assert stats.mean_fp_regs_in_use == pytest.approx(32.75)


def test_result_derived_metrics_and_summary():
    result = make_result(slip=20.0, fifo=5.0)
    assert result.fifo_slip_fraction == pytest.approx(0.25)
    assert result.average_power_w == pytest.approx(5.0)
    assert "perl" in result.summary()


def test_compare_produces_normalised_row():
    base = make_result(elapsed=1000.0, energy_nj=5000.0, slip=10.0, misspec=0.138)
    gals = make_result(processor="gals", elapsed=1111.0, energy_nj=5050.0,
                       slip=16.5, fifo=5.0, misspec=0.167)
    row = compare(base, gals)
    assert row.relative_performance == pytest.approx(1000.0 / 1111.0)
    assert row.performance_drop == pytest.approx(1.0 - 1000.0 / 1111.0)
    assert row.relative_energy == pytest.approx(5050.0 / 5000.0)
    assert row.relative_power == pytest.approx((5050.0 / 1111.0) / (5000.0 / 1000.0))
    assert row.power_saving == pytest.approx(1.0 - row.relative_power)
    assert row.slip_ratio == pytest.approx(1.65)
    assert row.base_misspeculation == pytest.approx(0.138)
    assert row.gals_misspeculation == pytest.approx(0.167)


def test_compare_rejects_mismatched_benchmarks():
    with pytest.raises(ValueError):
        compare(make_result(benchmark="perl"), make_result(benchmark="gcc"))


def test_means():
    assert arithmetic_mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)
    assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        geometric_mean([])
    with pytest.raises(ValueError):
        geometric_mean([1.0, -2.0])
    with pytest.raises(ValueError):
        arithmetic_mean([])
