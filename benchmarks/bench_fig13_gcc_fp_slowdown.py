"""Figure 13: gcc with the FP clock slowed (gals-1: -50 %, gals-2: /3).

Paper result: gcc has essentially no floating-point work, so its FP domain can
run at a third of the speed with little performance cost; combined with the
10 % fetch slowdown this yields ~11 % energy and ~21 % power savings for a
~13 % performance loss, and the GALS machine beats the voltage-scaled
synchronous "ideal" at the same performance -- the paper's positive result for
application-driven multi-domain DVFS.
"""

from repro.analysis import dvfs_table

import pytest

#: figure-reproduction benchmarks are tier-2: heavy, skipped by tier-1
pytestmark = pytest.mark.slow


def test_fig13_gcc_fp_slowdown(figure13_results):
    print("\n=== Figure 13: gcc, FP clock -50% (gals-1) and /3 (gals-2), "
          "fetch -10% ===")
    print(dvfs_table(figure13_results))

    gals_1, gals_2 = figure13_results
    for result in figure13_results:
        # Modest performance loss (paper: ~13 %), clear power savings.
        assert 0.75 < result.relative_performance < 1.0
        assert result.relative_power < 0.95
        assert result.relative_energy < 1.0
    # Slowing the unused FP domain further costs almost nothing extra.
    assert abs(gals_2.relative_performance - gals_1.relative_performance) < 0.05
    print(f"\ngals-1: perf {gals_1.relative_performance:.3f}, "
          f"energy {gals_1.relative_energy:.3f}, power {gals_1.relative_power:.3f} "
          f"(paper: 0.87 / 0.89 / 0.79)")
