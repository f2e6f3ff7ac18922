"""Determinism regression guard for the clock-wheel scheduler.

A processor simulated on the clock wheel must reproduce the results the
all-heap scheduler gave (pinned in ``test_golden_regression.PINS`` before that
path was deleted), and the parallel experiment runner must produce results
equal to the serial path.
"""

import pytest

from repro.core.experiments import baseline_comparison
from test_golden_regression import assert_pinned


def test_gals_wheel_equals_generic_scheduler():
    assert_pinned("machine-gals5")


def test_base_wheel_equals_generic_scheduler():
    assert_pinned("machine-base")


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
