"""Ablation: conditional-clocking (idle power) assumption and voltage scaling.

The paper models unused blocks as consuming 10 % of their full power and uses
Equation 1 with alpha = 1.6 for voltage scaling.  These ablations show how the
headline DVFS result (gcc, Figure 13) depends on those modelling choices: the
poorer the clock gating, the more the slowed configuration's longer run time
costs in idle energy; and a larger alpha (older technology) yields smaller
energy savings for the same slowdown.
"""

import pytest

from repro.core.config import ProcessorConfig
from repro.core.dvfs import GCC_GALS_1
from repro.core.experiments import selective_slowdown
from repro.power.technology import TechnologyParameters
from repro.power.voltage import voltage_for_slowdown

#: figure-reproduction benchmarks are tier-2: heavy, skipped by tier-1
pytestmark = pytest.mark.slow


def _gcc_energy_with_idle_fraction(idle_fraction):
    tech = TechnologyParameters(idle_power_fraction=idle_fraction)
    config = ProcessorConfig(technology=tech)
    result = selective_slowdown("gcc", GCC_GALS_1, num_instructions=800,
                                config=config)
    return result


def test_ablation_idle_power_fraction():
    nominal = _gcc_energy_with_idle_fraction(0.10)
    perfect_gating = _gcc_energy_with_idle_fraction(0.0)
    poor_gating = _gcc_energy_with_idle_fraction(0.25)

    print("\n=== Ablation: idle-power fraction (gcc, gals-1 policy) ===")
    for label, result in (("0% (perfect gating)", perfect_gating),
                          ("10% (paper's model)", nominal),
                          ("25% (poor gating)", poor_gating)):
        print(f"idle power {label:<22}: relative energy "
              f"{result.relative_energy:.3f}, power {result.relative_power:.3f}")

    # The poorer the clock gating, the more the GALS configuration's longer
    # run time costs: idle blocks keep burning power for extra nanoseconds, so
    # the relative energy of the slowed-down machine degrades as the idle
    # fraction grows (and improves under perfect gating).
    assert poor_gating.relative_energy >= nominal.relative_energy - 0.01
    assert perfect_gating.relative_energy <= nominal.relative_energy + 0.01


def test_ablation_voltage_scaling_exponent():
    """Equation 1: alpha = 2 (0.35 um) vs 1.6 (0.13 um) vs 1.2 (deep submicron)."""
    voltages = {alpha: voltage_for_slowdown(1.5, TechnologyParameters(alpha=alpha))
                for alpha in (1.2, 1.6, 2.0)}
    print("\n=== Ablation: Vdd needed for a 1.5x slowdown vs alpha ===")
    for alpha, vdd in sorted(voltages.items()):
        print(f"alpha {alpha:.1f}: Vdd {vdd:.3f} V "
              f"(energy x{(vdd / 1.5) ** 2:.2f})")
    # Smaller alpha (more advanced technology) allows a deeper voltage drop
    # for the same slowdown -- the paper's point that DVS pays off more in
    # newer technologies.
    assert voltages[1.2] < voltages[1.6] < voltages[2.0]
