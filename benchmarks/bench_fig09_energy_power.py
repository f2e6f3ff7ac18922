"""Figure 9: energy and average power of GALS normalised to the base machine.

Paper result: eliminating the global clock lowers per-cycle power (about 10 %
on average), but the longer execution time and extra speculative activity mean
total energy is *not* lower -- it rises by about 1 % on average.  This is the
paper's headline negative result: a GALS conversion by itself is not a
low-power technique.
"""

from repro.analysis import energy_power_table
from repro.core.experiments import average_energy_increase, average_power_saving

import pytest

#: figure-reproduction benchmarks are tier-2: heavy, skipped by tier-1
pytestmark = pytest.mark.slow


def test_fig09_energy_and_power(suite_rows):
    print("\n=== Figure 9: GALS energy / power normalised to base ===")
    print(energy_power_table(suite_rows))

    power_saving = average_power_saving(suite_rows)
    energy_increase = average_energy_increase(suite_rows)
    print(f"\naverage power saving:   {power_saving:.1%} (paper: ~10%)")
    print(f"average energy change:  {energy_increase:+.1%} (paper: +1%)")

    # Power drops visibly...
    assert 0.04 < power_saving < 0.20
    # ...but energy does not: the suite average stays within a few percent of
    # the synchronous machine, and some benchmarks pay *more* energy.
    assert -0.05 < energy_increase < 0.08
    assert any(row.relative_energy > 1.0 for row in suite_rows)
