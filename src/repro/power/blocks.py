"""Macro-block energy models.

Each power-modelled block of the processor -- the macro blocks of Figure 10 --
is described by a :class:`BlockEnergyModel`: a per-access energy, the number
of accesses a fully-busy cycle performs (its "ports"), and whether the block
is conditionally clocked.  The per-cycle energy follows Wattch's
conditional-clocking style the paper adopts: an accessed block is charged in
proportion to its port utilisation, an idle block is charged 10 % of its full
power (clock gating and leakage overhead), and clock grids are never gated.

:func:`default_block_models` builds the block set for a given processor
configuration, scaling per-access energies with the configured structure
sizes through :mod:`repro.power.capacitance`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from . import capacitance
from .technology import DEFAULT_TECHNOLOGY, TechnologyParameters


@dataclass(frozen=True)
class BlockEnergyModel:
    """Energy behaviour of one macro block."""

    name: str
    #: energy per access at nominal Vdd, in nJ
    access_energy: float
    #: accesses per cycle when fully utilised
    ports: int = 1
    #: True for conditionally-clocked blocks (idle cost = idle fraction),
    #: False for always-on blocks (clock grids)
    gated: bool = True
    #: reporting category used by the Figure-10 style breakdown
    category: str = "core"

    def __post_init__(self) -> None:
        if self.access_energy < 0:
            raise ValueError(f"block {self.name!r}: negative access energy")
        if self.ports <= 0:
            raise ValueError(f"block {self.name!r}: ports must be positive")

    @property
    def full_cycle_energy(self) -> float:
        """Energy of a fully-utilised cycle at nominal Vdd (nJ)."""
        return self.access_energy * self.ports

    def cycle_energy(self, accesses: int, vdd: float,
                     tech: TechnologyParameters = DEFAULT_TECHNOLOGY) -> float:
        """Energy consumed in one cycle with ``accesses`` accesses at ``vdd``."""
        if accesses < 0:
            raise ValueError("accesses must be non-negative")
        full = self.full_cycle_energy
        if not self.gated:
            nominal = full
        elif accesses == 0:
            nominal = tech.idle_power_fraction * full
        else:
            utilisation = min(1.0, accesses / self.ports)
            utilisation = max(utilisation, tech.idle_power_fraction)
            nominal = full * utilisation
        return capacitance.scale_voltage(nominal, vdd, tech)


#: Reporting categories, in the order Figure 10 stacks them.
BREAKDOWN_CATEGORIES = (
    "Global clock",
    "Domain clocks",
    "Fetch/I-cache",
    "Branch predictor",
    "Decode",
    "Rename",
    "Register file",
    "Issue windows",
    "ALUs",
    "D-cache",
    "L2 cache",
    "Result bus",
    "FIFOs",
)


def default_block_models(
    *,
    int_issue_entries: int = 20,
    fp_issue_entries: int = 16,
    mem_issue_entries: int = 16,
    int_registers: int = 72,
    fp_registers: int = 72,
    il1_size: int = 16 * 1024,
    il1_assoc: int = 1,
    dl1_size: int = 16 * 1024,
    dl1_assoc: int = 4,
    l2_size: int = 256 * 1024,
    l2_assoc: int = 4,
    num_int_alus: int = 4,
    num_fp_alus: int = 4,
    machine_width: int = 4,
) -> Dict[str, BlockEnergyModel]:
    """Energy models for every conditionally-clocked block (no clock grids).

    Clock grids are registered separately by the power accountant because
    their energy is per clock cycle of a specific domain, not per access.
    """
    regfile_entries = int_registers + fp_registers
    regfile_energy = capacitance.regfile_access_energy(entries=regfile_entries)
    return {
        "icache": BlockEnergyModel(
            "icache",
            capacitance.array_access_energy(il1_size, il1_assoc),
            ports=1, category="Fetch/I-cache"),
        "bpred": BlockEnergyModel(
            "bpred",
            capacitance.array_access_energy(4 * 1024, 1) * 0.5,
            ports=machine_width, category="Branch predictor"),
        "decode": BlockEnergyModel(
            "decode", capacitance.decode_energy(), ports=machine_width,
            category="Decode"),
        "rename": BlockEnergyModel(
            "rename", capacitance.rename_energy(), ports=machine_width,
            category="Rename"),
        "regfile_read": BlockEnergyModel(
            "regfile_read", regfile_energy, ports=2 * machine_width,
            category="Register file"),
        "regfile_write": BlockEnergyModel(
            "regfile_write", regfile_energy, ports=machine_width,
            category="Register file"),
        "iq_int": BlockEnergyModel(
            "iq_int", capacitance.cam_access_energy(int_issue_entries),
            ports=2 * machine_width, category="Issue windows"),
        "iq_fp": BlockEnergyModel(
            "iq_fp", capacitance.cam_access_energy(fp_issue_entries) * 0.85,
            ports=2 * machine_width, category="Issue windows"),
        "iq_mem": BlockEnergyModel(
            "iq_mem", capacitance.cam_access_energy(mem_issue_entries) * 0.8,
            ports=2 * machine_width, category="Issue windows"),
        "alu_int": BlockEnergyModel(
            "alu_int", capacitance.alu_energy(is_fp=False), ports=num_int_alus,
            category="ALUs"),
        "alu_fp": BlockEnergyModel(
            "alu_fp", capacitance.alu_energy(is_fp=True), ports=num_fp_alus,
            category="ALUs"),
        "dcache": BlockEnergyModel(
            "dcache", capacitance.array_access_energy(dl1_size, dl1_assoc),
            ports=2, category="D-cache"),
        "l2": BlockEnergyModel(
            "l2", capacitance.array_access_energy(l2_size, l2_assoc) * 0.5,
            ports=1, category="L2 cache"),
        "resultbus": BlockEnergyModel(
            "resultbus", capacitance.result_bus_energy(), ports=machine_width,
            category="Result bus"),
        "fifo": BlockEnergyModel(
            "fifo", capacitance.fifo_transfer_energy(), ports=4 * machine_width,
            category="FIFOs"),
    }


def global_clock_block() -> BlockEnergyModel:
    """The chip-wide global clock grid (synchronous base processor only)."""
    return BlockEnergyModel("global_clock",
                            capacitance.global_clock_grid_energy(),
                            ports=1, gated=False, category="Global clock")


def local_clock_block(domain: str) -> BlockEnergyModel:
    """One clock domain's local (major-clock) grid."""
    return BlockEnergyModel(f"clock_{domain}",
                            capacitance.local_clock_grid_energy(domain),
                            ports=1, gated=False, category="Domain clocks")
