"""Dynamic voltage scaling model (paper Equation 1, Section 3.3).

The delay of a logic path depends on supply voltage as::

    D  proportional to  Vdd / (Vdd - Vt) ** alpha

so a clock domain slowed down by a factor *s* (its period multiplied by *s*)
can run at the lower supply voltage at which logic delay has grown by that
same factor.  Dynamic energy scales with Vdd squared, which is where the GALS
machine's energy advantage in the multiple-voltage experiments comes from.
"""

from __future__ import annotations

from dataclasses import dataclass

from .technology import DEFAULT_TECHNOLOGY, TechnologyParameters


def delay_factor(vdd: float, tech: TechnologyParameters = DEFAULT_TECHNOLOGY) -> float:
    """Relative logic delay at ``vdd``, normalised to the nominal voltage.

    Returns D(vdd) / D(nominal_vdd); 1.0 at nominal, > 1 below it.
    """
    if vdd <= tech.threshold_voltage:
        raise ValueError(f"Vdd {vdd} must exceed the threshold voltage "
                         f"{tech.threshold_voltage}")
    def raw(v: float) -> float:
        """Unnormalised Equation-1 delay at one supply voltage."""
        return v / (v - tech.threshold_voltage) ** tech.alpha
    return raw(vdd) / raw(tech.nominal_vdd)


def voltage_for_slowdown(slowdown: float,
                         tech: TechnologyParameters = DEFAULT_TECHNOLOGY,
                         tolerance: float = 1e-6) -> float:
    """Lowest supply voltage at which logic is at most ``slowdown`` x slower.

    ``slowdown`` is the clock-period stretch factor (1.0 = nominal speed,
    2.0 = half speed).  Values below 1 (overclocking) would require raising
    Vdd above nominal, which the paper does not consider; the nominal voltage
    is returned in that case.

    The equation is monotonic in Vdd, so a simple bisection between Vt and the
    nominal voltage suffices (this is the "ideal" voltage; DC-DC conversion
    overheads are ignored, as in the paper).
    """
    if slowdown <= 0:
        raise ValueError("slowdown must be positive")
    if slowdown <= 1.0:
        return tech.nominal_vdd
    low = tech.threshold_voltage + 1e-4
    high = tech.nominal_vdd
    # delay_factor(low) is huge, delay_factor(high) == 1; find the crossing.
    for _ in range(200):
        mid = 0.5 * (low + high)
        if delay_factor(mid, tech) > slowdown:
            low = mid
        else:
            high = mid
        if high - low < tolerance:
            break
    return high


def energy_scale(vdd: float,
                 tech: TechnologyParameters = DEFAULT_TECHNOLOGY) -> float:
    """Dynamic energy multiplier at ``vdd`` relative to the nominal voltage."""
    if vdd <= 0:
        raise ValueError("Vdd must be positive")
    return (vdd / tech.nominal_vdd) ** 2


@dataclass
class OperatingPoint:
    """A (frequency slowdown, supply voltage) pair for one clock domain."""

    slowdown: float
    vdd: float
    tech: TechnologyParameters = DEFAULT_TECHNOLOGY

    @property
    def energy_multiplier(self) -> float:
        """Dynamic-energy scale factor (Vdd squared) at this operating point."""
        return energy_scale(self.vdd, self.tech)

    @property
    def frequency_ghz(self) -> float:
        """Clock frequency at this operating point, in GHz."""
        return self.tech.nominal_frequency_ghz / self.slowdown


def operating_point_for_slowdown(slowdown: float,
                                 tech: TechnologyParameters = DEFAULT_TECHNOLOGY,
                                 conversion_efficiency: float = 1.0,
                                 ) -> OperatingPoint:
    """Slowdown -> (voltage, energy multiplier) with optional DC-DC loss.

    ``conversion_efficiency`` < 1 models the practical overhead of level
    conversion / DC-DC regulation the paper mentions but idealises away; the
    delivered energy saving is divided by it.
    """
    if not 0 < conversion_efficiency <= 1:
        raise ValueError("conversion_efficiency must be in (0, 1]")
    vdd = voltage_for_slowdown(slowdown, tech)
    if conversion_efficiency < 1.0:
        # Lost efficiency shows up as a higher effective voltage for energy
        # purposes (same delivered charge, more drawn energy).
        effective = min(tech.nominal_vdd, vdd / conversion_efficiency ** 0.5)
        vdd = effective
    return OperatingPoint(slowdown=slowdown, vdd=vdd, tech=tech)


def ideal_synchronous_energy(performance_ratio: float,
                             tech: TechnologyParameters = DEFAULT_TECHNOLOGY,
                             ) -> float:
    """Normalised energy of the base machine slowed to ``performance_ratio``.

    The "ideal" bars of Figures 12 and 13 show the energy of the *fully
    synchronous* processor when its single clock is slowed (and its voltage
    lowered) just enough to match the GALS configuration's performance.
    Slowing a single-clock machine by a factor ``1 / performance_ratio``
    stretches execution time by the same factor while per-cycle energy drops
    with the square of the scaled voltage, so normalised total energy is
    simply the energy multiplier at that voltage.
    """
    if not 0 < performance_ratio <= 1:
        raise ValueError("performance_ratio must be in (0, 1]")
    slowdown = 1.0 / performance_ratio
    vdd = voltage_for_slowdown(slowdown, tech)
    return energy_scale(vdd, tech)
