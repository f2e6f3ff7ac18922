"""Figure 10: energy breakdown into macro blocks (base vs GALS).

Paper result: the energy the GALS machine saves by dropping the global clock
grid is largely offset by the increased energy of the other blocks (longer run
time, fuller queues, more speculation) plus the FIFOs themselves.
"""

from repro.analysis import breakdown_table
from repro.power.blocks import BREAKDOWN_CATEGORIES

import pytest

#: figure-reproduction benchmarks are tier-2: heavy, skipped by tier-1
pytestmark = pytest.mark.slow


def test_fig10_energy_breakdown(suite_rows):
    perl = next(row for row in suite_rows if row.benchmark == "perl")
    base_energy = perl.base_result.energy
    gals_energy = perl.gals_result.energy

    print("\n=== Figure 10: energy breakdown by macro block (perl, "
          "normalised to base total) ===")
    print(breakdown_table(base_energy, gals_energy))

    # The base machine has a global clock slice of roughly 10 % of its energy.
    global_share = base_energy.category_share("Global clock")
    assert 0.05 < global_share < 0.20
    # The GALS machine has no global clock but does pay for FIFOs.
    assert gals_energy.by_category.get("Global clock", 0.0) == 0.0
    assert gals_energy.by_category.get("FIFOs", 0.0) > 0.0
    # Every non-clock category costs at least as much energy in GALS (longer
    # run time at the same voltage), which is what offsets the clock savings.
    grew = sum(
        1 for category in BREAKDOWN_CATEGORIES
        if category not in ("Global clock", "FIFOs", "Domain clocks")
        and gals_energy.by_category.get(category, 0.0)
        >= 0.95 * base_energy.by_category.get(category, 0.0))
    assert grew >= 8
