"""Determinism regression guard for the clock-wheel scheduler rework.

The fast-path contract is that a processor simulated on the clock-wheel
scheduler produces *bit-identical* results to the generic heap scheduler
(the seed engine's event loop), and that the parallel experiment runner
produces results equal to the serial path.
"""

import pytest

from repro.core.experiments import baseline_comparison
from repro.workloads.registry import build_workload
from repro.core.processor import Processor
from repro.sim.engine import SimulationEngine

EQUIV_INSTRUCTIONS = 500


def _run(gals: bool, use_wheel: bool):
    trace, workload = build_workload("perl", EQUIV_INSTRUCTIONS, seed=1)
    machine = Processor(trace, gals=gals, workload=workload,
                        engine=SimulationEngine(use_wheel=use_wheel))
    return machine.run()


def _assert_identical(wheel, generic):
    assert wheel.committed_instructions == generic.committed_instructions
    assert wheel.elapsed_ns == generic.elapsed_ns
    assert wheel.reference_cycles == generic.reference_cycles
    assert wheel.ipc == generic.ipc
    assert wheel.mean_slip_ns == generic.mean_slip_ns
    assert wheel.mean_fifo_time_ns == generic.mean_fifo_time_ns
    assert wheel.fetched_instructions == generic.fetched_instructions
    assert wheel.wrong_path_fetched == generic.wrong_path_fetched
    assert wheel.domain_cycles == generic.domain_cycles
    assert wheel.recoveries == generic.recoveries
    assert wheel.mean_rob_occupancy == generic.mean_rob_occupancy
    assert wheel.mean_iq_occupancy == generic.mean_iq_occupancy
    assert wheel.total_energy_nj == generic.total_energy_nj
    assert wheel.energy.by_block == generic.energy.by_block


def test_gals_wheel_equals_generic_scheduler():
    _assert_identical(_run(gals=True, use_wheel=True),
                      _run(gals=True, use_wheel=False))


def test_base_wheel_equals_generic_scheduler():
    _assert_identical(_run(gals=False, use_wheel=True),
                      _run(gals=False, use_wheel=False))


# ------------------------------------------------------------ parallel runner
def test_parallel_baseline_comparison_equals_serial():
    benchmarks = ("perl", "compress", "adpcm")
    serial = baseline_comparison(benchmarks, num_instructions=300, jobs=1)
    parallel = baseline_comparison(benchmarks, num_instructions=300, jobs=2)
    assert len(serial) == len(parallel) == len(benchmarks)
    for serial_row, parallel_row in zip(serial, parallel):
        assert serial_row.benchmark == parallel_row.benchmark
        assert serial_row.relative_performance == parallel_row.relative_performance
        assert serial_row.relative_energy == parallel_row.relative_energy
        assert serial_row.relative_power == parallel_row.relative_power
        assert serial_row.slip_ratio == parallel_row.slip_ratio
        assert (serial_row.base_result.elapsed_ns
                == parallel_row.base_result.elapsed_ns)
        assert (serial_row.gals_result.energy.by_block
                == parallel_row.gals_result.energy.by_block)


def test_default_jobs_honours_environment(monkeypatch):
    from repro.core.scenario import JOBS_ENV_VAR, default_jobs

    monkeypatch.setenv(JOBS_ENV_VAR, "3")
    assert default_jobs() == 3
    monkeypatch.setenv(JOBS_ENV_VAR, "junk")
    with pytest.raises(ValueError):
        default_jobs()
    monkeypatch.delenv(JOBS_ENV_VAR)
    assert default_jobs() >= 1
