"""Figure 12: ijpeg with fetch -10 %, FP -20 %, and a memory-clock sweep.

Paper result: for ijpeg (very few memory accesses in its hot loops but a
non-trivial working set) slowing the memory clock trades performance for
energy poorly: energy savings of 4-13 % cost 15-25 % of performance, and the
voltage-scaled *synchronous* machine at the same performance ("ideal") is more
energy-efficient.  The crossover argument -- which domains are worth slowing
depends on the application -- is the point being reproduced.
"""

from repro.analysis import dvfs_table

import pytest

#: figure-reproduction benchmarks are tier-2: heavy, skipped by tier-1
pytestmark = pytest.mark.slow


def test_fig12_ijpeg_memory_sweep(figure12_results):
    print("\n=== Figure 12: ijpeg, memory clock slowdown sweep "
          "(gals-00 / 10 / 20 / 50) ===")
    print(dvfs_table(figure12_results))

    performances = [r.relative_performance for r in figure12_results]
    energies = [r.relative_energy for r in figure12_results]

    # Slowing the memory clock further never helps performance (allow a small
    # tolerance for run-to-run phase noise between adjacent sweep points).
    for earlier, later in zip(performances, performances[1:]):
        assert later <= earlier + 0.02
    assert performances[-1] < performances[0]
    # Energy goes down (or at worst stays flat) as more of the chip slows and
    # its voltage scales.
    assert energies[-1] <= energies[0] + 0.02
    # All configurations lose performance relative to the synchronous base.
    assert all(p < 1.0 for p in performances)
    # The ideal (voltage-scaled synchronous) reference is more energy
    # efficient than the GALS configuration at the same performance for the
    # aggressive memory slowdowns -- the paper's "not a good tradeoff" claim.
    aggressive = figure12_results[-1]
    assert aggressive.ideal_energy <= aggressive.relative_energy + 0.02
    print(f"\ngals-50: perf {aggressive.relative_performance:.3f}, "
          f"energy {aggressive.relative_energy:.3f}, "
          f"ideal {aggressive.ideal_energy:.3f}")
