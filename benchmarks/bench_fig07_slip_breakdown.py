"""Figure 7: relative slip -- share spent in FIFOs vs in the pipeline.

Paper result: part of the GALS slip increase is time physically spent inside
the mixed-clock FIFOs, but a further part comes from the latency of forwarding
results between queues; the FIFO share is therefore a visible but minority
fraction of the total slip.
"""

from repro.analysis import slip_breakdown_table

import pytest

#: figure-reproduction benchmarks are tier-2: heavy, skipped by tier-1
pytestmark = pytest.mark.slow


def test_fig07_slip_breakdown(suite_rows):
    print("\n=== Figure 7: share of GALS slip spent in FIFOs vs pipeline ===")
    print(slip_breakdown_table(suite_rows))

    shares = [row.gals_fifo_slip_fraction for row in suite_rows]
    # every benchmark spends a non-trivial but minority share of its slip in
    # the mixed-clock FIFOs
    assert all(0.02 < share < 0.75 for share in shares)
    mean_share = sum(shares) / len(shares)
    print(f"\nmean FIFO share of slip: {mean_share:.1%}")
    assert 0.10 < mean_share < 0.60
