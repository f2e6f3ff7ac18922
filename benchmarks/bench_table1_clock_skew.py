"""Table 1: global clock skew trends across process generations.

Regenerates the case-study table (published data plus the derived
skew-per-cycle column) and checks the trend the paper's argument relies on:
skew budgets shrink while device counts explode, so by the 0.18 um generation
un-deskewed global skew approaches 10 % of the cycle time.
"""

from repro.analysis import CLOCK_SKEW_CASES, clock_skew_table, projected_skew_fraction

import pytest

#: figure-reproduction benchmarks are tier-2: heavy, skipped by tier-1
pytestmark = pytest.mark.slow


def test_table1_clock_skew_trends():
    table = clock_skew_table()
    print("\n=== Table 1: Trends in global clock skew ===")
    print(table)
    projection = projected_skew_fraction(0.13)
    print(f"\nProjected (un-deskewed) skew fraction at 0.13 um: {projection:.1%}")

    undeskewed_itanium = [c for c in CLOCK_SKEW_CASES if "without" in c.design][0]
    assert 0.07 < undeskewed_itanium.skew_fraction_of_cycle < 0.11
    demands = [c.devices_per_ps_of_skew for c in CLOCK_SKEW_CASES
               if "without" not in c.design]
    assert demands == sorted(demands)
    assert projection > undeskewed_itanium.skew_fraction_of_cycle * 0.8
