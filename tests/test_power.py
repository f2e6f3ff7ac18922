"""Unit tests for the Wattch-style power models and voltage scaling (Eq. 1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.power import (ActivityCounters, BlockEnergyModel, DEFAULT_TECHNOLOGY,
                         PowerAccountant, TechnologyParameters, default_block_models,
                         delay_factor, energy_scale, global_clock_block,
                         ideal_synchronous_energy, local_clock_block,
                         operating_point_for_slowdown, voltage_for_slowdown)
from repro.power import capacitance
from repro.sim.clock import Clock, ClockDomain
from repro.sim.engine import SimulationEngine


# ----------------------------------------------------------------- technology
def test_technology_validation():
    with pytest.raises(ValueError):
        TechnologyParameters(nominal_vdd=0.3, threshold_voltage=0.35)
    with pytest.raises(ValueError):
        TechnologyParameters(idle_power_fraction=1.5)
    assert DEFAULT_TECHNOLOGY.nominal_period_ns == pytest.approx(1.0)
    assert DEFAULT_TECHNOLOGY.alpha == pytest.approx(1.6)


# -------------------------------------------------------------- Equation 1 DVS
def test_delay_factor_is_one_at_nominal_and_grows_below():
    assert delay_factor(DEFAULT_TECHNOLOGY.nominal_vdd) == pytest.approx(1.0)
    assert delay_factor(1.0) > 1.0
    with pytest.raises(ValueError):
        delay_factor(0.2)


def test_voltage_for_slowdown_inverts_delay_factor():
    for slowdown in (1.1, 1.5, 2.0, 3.0):
        vdd = voltage_for_slowdown(slowdown)
        assert vdd < DEFAULT_TECHNOLOGY.nominal_vdd
        assert delay_factor(vdd) == pytest.approx(slowdown, rel=1e-3)


def test_voltage_for_slowdown_edge_cases():
    assert voltage_for_slowdown(1.0) == DEFAULT_TECHNOLOGY.nominal_vdd
    assert voltage_for_slowdown(0.5) == DEFAULT_TECHNOLOGY.nominal_vdd
    with pytest.raises(ValueError):
        voltage_for_slowdown(0.0)


def test_energy_scale_quadratic_in_voltage():
    assert energy_scale(DEFAULT_TECHNOLOGY.nominal_vdd) == pytest.approx(1.0)
    assert energy_scale(0.75) == pytest.approx(0.25)


def test_smaller_alpha_gives_less_voltage_reduction():
    """The paper notes savings are higher for smaller technologies (alpha
    closer to 1 needs a *larger* voltage drop for the same slowdown)."""
    tech_alpha_2 = DEFAULT_TECHNOLOGY.with_alpha(2.0)
    tech_alpha_1_2 = DEFAULT_TECHNOLOGY.with_alpha(1.2)
    v2 = voltage_for_slowdown(1.5, tech_alpha_2)
    v12 = voltage_for_slowdown(1.5, tech_alpha_1_2)
    assert v12 < v2


def test_operating_point_with_conversion_losses():
    ideal = operating_point_for_slowdown(2.0)
    lossy = operating_point_for_slowdown(2.0, conversion_efficiency=0.85)
    assert lossy.energy_multiplier > ideal.energy_multiplier
    with pytest.raises(ValueError):
        operating_point_for_slowdown(2.0, conversion_efficiency=0.0)


def test_ideal_synchronous_energy_monotone_in_performance():
    energies = [ideal_synchronous_energy(p) for p in (1.0, 0.9, 0.8, 0.7)]
    assert energies[0] == pytest.approx(1.0)
    assert energies == sorted(energies, reverse=True)
    with pytest.raises(ValueError):
        ideal_synchronous_energy(0.0)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1.0, max_value=4.0))
def test_property_voltage_scaling_never_exceeds_nominal(slowdown):
    vdd = voltage_for_slowdown(slowdown)
    assert DEFAULT_TECHNOLOGY.threshold_voltage < vdd <= DEFAULT_TECHNOLOGY.nominal_vdd
    assert 0.0 < energy_scale(vdd) <= 1.0


# ---------------------------------------------------------------- capacitance
def test_capacitance_scaling_trends():
    small = capacitance.array_access_energy(8 * 1024, 1)
    big = capacitance.array_access_energy(256 * 1024, 1)
    assert big > small
    direct = capacitance.array_access_energy(16 * 1024, 1)
    four_way = capacitance.array_access_energy(16 * 1024, 4)
    assert four_way > direct
    assert capacitance.cam_access_energy(32) > capacitance.cam_access_energy(16)
    with pytest.raises(ValueError):
        capacitance.array_access_energy(0)
    with pytest.raises(ValueError):
        capacitance.clock_grid_energy_per_cycle(-1.0)


def test_global_grid_larger_than_any_local_grid():
    global_energy = capacitance.global_clock_grid_energy()
    for domain in capacitance.DOMAIN_AREAS_MM2:
        assert capacitance.local_clock_grid_energy(domain) < global_energy
    with pytest.raises(KeyError):
        capacitance.local_clock_grid_energy("gpu")


# --------------------------------------------------------------------- blocks
def test_block_cycle_energy_conditional_clocking():
    model = BlockEnergyModel("alu", access_energy=1.0, ports=4)
    vdd = DEFAULT_TECHNOLOGY.nominal_vdd
    idle = model.cycle_energy(0, vdd)
    assert idle == pytest.approx(0.4)  # 10% of full (4.0)
    partial = model.cycle_energy(2, vdd)
    assert partial == pytest.approx(2.0)
    saturated = model.cycle_energy(10, vdd)
    assert saturated == pytest.approx(4.0)
    with pytest.raises(ValueError):
        model.cycle_energy(-1, vdd)


def test_block_energy_scales_with_voltage_squared():
    model = BlockEnergyModel("alu", access_energy=1.0, ports=1)
    full = model.cycle_energy(1, DEFAULT_TECHNOLOGY.nominal_vdd)
    scaled = model.cycle_energy(1, DEFAULT_TECHNOLOGY.nominal_vdd / 2)
    assert scaled == pytest.approx(full / 4)


def test_clock_grid_blocks_are_not_gated():
    grid = global_clock_block()
    assert not grid.gated
    assert grid.cycle_energy(0, DEFAULT_TECHNOLOGY.nominal_vdd) == pytest.approx(
        grid.full_cycle_energy)
    local = local_clock_block("fetch")
    assert local.category == "Domain clocks"


def test_default_block_models_cover_figure10_categories():
    models = default_block_models()
    categories = {m.category for m in models.values()}
    for expected in ("Fetch/I-cache", "Issue windows", "ALUs", "D-cache",
                     "Register file", "Rename", "Decode", "Result bus"):
        assert expected in categories
    # bigger issue queues cost more energy per access
    big = default_block_models(int_issue_entries=40)
    assert big["iq_int"].access_energy > models["iq_int"].access_energy


def test_block_model_validation():
    with pytest.raises(ValueError):
        BlockEnergyModel("x", access_energy=-1.0)
    with pytest.raises(ValueError):
        BlockEnergyModel("x", access_energy=1.0, ports=0)


# ----------------------------------------------------------------- accounting
def test_activity_counters_pending_and_totals():
    activity = ActivityCounters()
    activity.record("icache", 2)
    activity.record("icache", 1)
    assert activity.pending("icache") == 3
    assert activity.drain("icache") == 3
    assert activity.pending("icache") == 0
    assert activity.total("icache") == 3
    with pytest.raises(ValueError):
        activity.record("icache", -1)


def test_power_accountant_charges_blocks_per_cycle():
    engine = SimulationEngine()
    domain = ClockDomain(Clock("core", period=1.0), voltage=1.5)
    activity = ActivityCounters()
    accountant = PowerAccountant(activity)
    block = BlockEnergyModel("alu", access_energy=1.0, ports=1)
    accountant.register_block(block, domain)

    class Worker:
        def clock_edge(self, cycle, time):
            if cycle < 3:
                activity.record("alu", 1)

    # registered after the accountant: components tick before the probe
    # regardless
    domain.add_component(Worker())
    domain.bind(engine)
    engine.run(until=5.0)
    # 3 active cycles at 1.0 nJ + 3 idle cycles at 0.1 nJ
    assert accountant.energy_by_block["alu"] == pytest.approx(3.3)
    breakdown = accountant.breakdown(elapsed_ns=6.0)
    assert breakdown.total_energy_nj == pytest.approx(3.3)
    assert breakdown.average_power_w == pytest.approx(3.3 / 6.0)
    assert breakdown.by_category["core"] == pytest.approx(3.3)


def test_power_accountant_rejects_duplicate_blocks():
    domain = ClockDomain(Clock("core", period=1.0))
    accountant = PowerAccountant(ActivityCounters())
    block = BlockEnergyModel("alu", access_energy=1.0)
    accountant.register_block(block, domain)
    with pytest.raises(ValueError):
        accountant.register_block(block, domain)


def test_breakdown_normalisation_and_share():
    # the energy comes from recorded activity on a bound domain: a flush
    # copies the accountant's own accumulators over ``energy_by_block``
    engine = SimulationEngine()
    domain = ClockDomain(Clock("core", period=1.0))
    activity = ActivityCounters()
    accountant = PowerAccountant(activity)
    accountant.register_block(BlockEnergyModel("alu", access_energy=1.0), domain)

    class Worker:
        def clock_edge(self, cycle, time):
            activity.record("alu", 1)

    domain.add_component(Worker())
    domain.bind(engine)
    engine.run(until=4.5)
    assert accountant.energy_by_block["alu"] > 0.0
    breakdown = accountant.breakdown(elapsed_ns=10.0)
    assert breakdown.category_share("core") == pytest.approx(1.0)
    reference = breakdown
    normalised = breakdown.normalised_to(reference)
    assert all(0.0 <= v <= 1.0 for v in normalised.values())
