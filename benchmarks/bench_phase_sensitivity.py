"""Section 5.1 (text): sensitivity of GALS performance to relative clock phase.

Paper result: with all clocks at the same frequency, performance varies with
the (random) relative phases of the domain clocks by roughly 0.5 %.
"""

from repro.core.experiments import phase_sensitivity

import pytest

#: figure-reproduction benchmarks are tier-2: heavy, skipped by tier-1
pytestmark = pytest.mark.slow


def test_phase_sensitivity():
    report = phase_sensitivity(benchmark="perl", phase_seeds=(0, 1, 2, 3),
                               num_instructions=800)

    print("\n=== Clock-phase sensitivity (perl, equal frequencies) ===")
    for key, value in report.items():
        if key != "spread":
            print(f"  {key}: relative performance {value:.4f}")
    print(f"  spread: {report['spread']:.3%} (paper: ~0.5%)")

    # small but non-zero variation
    assert report["spread"] < 0.06
