"""Figure 8: percentage of mis-speculated instructions, base vs GALS.

Paper result: the longer recovery pipeline of the GALS machine increases
wasted speculative work -- for the integer applications from 13.8 % of fetched
instructions to 16.7 %; the increase is smaller for benchmarks dominated by
long-latency (FP) instructions.
"""

from repro.analysis import misspeculation_table
from repro.workloads.profiles import get_profile

import pytest

#: figure-reproduction benchmarks are tier-2: heavy, skipped by tier-1
pytestmark = pytest.mark.slow


def test_fig08_misspeculated_instructions(suite_rows):
    print("\n=== Figure 8: mis-speculated instructions (fraction of fetches) ===")
    print(misspeculation_table(suite_rows))

    int_rows = [row for row in suite_rows
                if get_profile(row.benchmark).is_integer_benchmark]
    fp_rows = [row for row in suite_rows
               if not get_profile(row.benchmark).is_integer_benchmark]
    base_int = sum(r.base_misspeculation for r in int_rows) / len(int_rows)
    gals_int = sum(r.gals_misspeculation for r in int_rows) / len(int_rows)
    print(f"\ninteger benchmarks: base {base_int:.1%} -> GALS {gals_int:.1%} "
          f"(paper: 13.8% -> 16.7%)")

    # Direction and rough magnitude: speculation increases for integer codes,
    # and integer codes speculate far more than FP codes.
    assert gals_int > base_int
    assert 0.05 < base_int < 0.35
    base_fp = sum(r.base_misspeculation for r in fp_rows) / len(fp_rows)
    assert base_fp < base_int
