"""Figure 11 (and the perl case study of Section 5.2): selective slowdown.

Paper result: slowing the fetch and memory clocks by 10 % and the FP clock by
50 % "generically" (same policy for every application) saves energy and power
but costs a substantial ~18 % of performance -- so slowdown has to be applied
selectively, per application.  The perl-specific policy (FP clock / 3) costs
only ~9 % performance while cutting power by ~18 % and energy by ~11 %.
"""

from repro.analysis import dvfs_table

import pytest

#: figure-reproduction benchmarks are tier-2: heavy, skipped by tier-1
pytestmark = pytest.mark.slow


def test_fig11_generic_and_perl_slowdown(figure11_results):
    print("\n=== Figure 11: generic slowdown (fetch -10%, mem -10%, FP -50%) "
          "plus the perl FP/3 case ===")
    print(dvfs_table(figure11_results, include_ideal=False))

    generic = [r for r in figure11_results if r.policy == "generic"]
    perl_fp3 = next(r for r in figure11_results if r.policy == "perl-fp3")

    # The generic policy costs performance on every benchmark and saves power.
    assert all(r.relative_performance < 1.0 for r in generic)
    assert all(r.relative_power < 1.0 for r in generic)
    mean_drop = sum(1 - r.relative_performance for r in generic) / len(generic)
    print(f"\nmean performance drop of the generic policy: {mean_drop:.1%} "
          f"(paper: ~18%)")
    assert 0.03 < mean_drop < 0.30

    # The application-specific perl policy is gentler on performance than the
    # generic one while still saving power (paper: -9% perf, -18% power).
    generic_perl = next(r for r in generic if r.benchmark == "perl")
    assert perl_fp3.relative_performance >= generic_perl.relative_performance
    assert perl_fp3.relative_power < 1.0
    assert perl_fp3.relative_energy < 1.02
    print(f"perl FP/3: perf {perl_fp3.relative_performance:.3f}, "
          f"energy {perl_fp3.relative_energy:.3f}, "
          f"power {perl_fp3.relative_power:.3f} "
          f"(paper: 0.91 / 0.89 / 0.82)")
