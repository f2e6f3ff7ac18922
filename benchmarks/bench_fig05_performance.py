"""Figure 5: performance of the GALS model relative to the base model.

Paper result: the GALS processor is 10 % slower on average (range roughly
5-15 %); fpppp, with its exceptionally low branch density, takes the smallest
hit.  The reproduced figure uses the session-cached full suite.
"""

from repro.analysis import bar_chart, performance_table
from repro.core.experiments import average_performance_drop

import pytest

#: figure-reproduction benchmarks are tier-2: heavy, skipped by tier-1
pytestmark = pytest.mark.slow


def test_fig05_relative_performance(suite_rows):
    print("\n=== Figure 5: GALS performance relative to base ===")
    print(performance_table(suite_rows))
    print()
    print(bar_chart({row.benchmark: row.relative_performance for row in suite_rows},
                    title="relative performance (1.0 = synchronous base)",
                    maximum=1.0))

    average_drop = average_performance_drop(suite_rows)
    # Paper: 5-15 % drop, 10 % on average.
    assert 0.04 < average_drop < 0.20
    fpppp = next(row for row in suite_rows if row.benchmark == "fpppp")
    assert fpppp.relative_performance == max(r.relative_performance
                                             for r in suite_rows)
    assert all(row.relative_performance <= 1.01 for row in suite_rows)
