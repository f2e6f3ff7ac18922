"""Simulation statistics and result records.

:class:`SimulationStats` is filled in while a processor runs (commits, slips,
occupancies); :class:`SimulationResult` is the frozen record a run returns,
combining performance metrics with the power breakdown.  The comparison
helpers compute the normalised quantities the paper's figures plot (relative
performance, energy and power of GALS vs base, slip ratios, mis-speculation
percentages).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from .._compat import ordered_sum
from ..isa.instructions import InstructionClass
from ..power.accounting import EnergyBreakdown

#: Enum-member -> value cache: ``Enum.value`` goes through a descriptor on
#: every read, and record_commit runs once per committed instruction.
_CLASS_VALUES = {opclass: opclass.value for opclass in InstructionClass}


class SimulationStats:
    """Mutable counters updated while the pipeline runs."""

    def __init__(self) -> None:
        self.committed = 0
        self.committed_by_class: Dict[str, int] = {}
        self.slip_sum = 0.0
        self.fifo_time_sum = 0.0
        self.branches_committed = 0
        self.last_commit_time = 0.0
        # occupancy sampling (one sample per commit-domain cycle)
        self.occupancy_samples = 0
        self.rob_occupancy_sum = 0
        self.int_regs_in_use_sum = 0
        self.fp_regs_in_use_sum = 0
        #: when set, ``on_target`` fires as the commit count reaches
        #: ``commit_target`` -- the processor uses it to stop the engine
        #: without paying a stop-condition callback after every event
        self.commit_target: Optional[int] = None
        self.on_target = None

    # ------------------------------------------------------------ recording
    def record_commit(self, instr, now: float) -> None:
        """Called by the commit unit for every retired instruction."""
        committed = self.committed + 1
        self.committed = committed
        key = _CLASS_VALUES[instr.opclass]
        self.committed_by_class[key] = self.committed_by_class.get(key, 0) + 1
        # inline instr.slip (property): slip is 0 unless both ends are stamped
        commit_time = instr.commit_time
        fetch_time = instr.fetch_time
        if commit_time >= 0 and fetch_time >= 0:
            self.slip_sum += commit_time - fetch_time
        self.fifo_time_sum += instr.fifo_time
        if instr.is_branch:
            self.branches_committed += 1
        self.last_commit_time = now
        if committed == self.commit_target and self.on_target is not None:
            self.on_target()

    # -------------------------------------------------------------- averages
    @property
    def mean_slip(self) -> float:
        """Average fetch-to-commit slip (ns) over committed instructions."""
        return self.slip_sum / self.committed if self.committed else 0.0

    @property
    def mean_fifo_time(self) -> float:
        """Average per-instruction residency (ns) in mixed-clock FIFOs."""
        return self.fifo_time_sum / self.committed if self.committed else 0.0

    @property
    def mean_rob_occupancy(self) -> float:
        """Average ROB occupancy over the sampled cycles."""
        if self.occupancy_samples == 0:
            return 0.0
        return self.rob_occupancy_sum / self.occupancy_samples

    @property
    def mean_int_regs_in_use(self) -> float:
        """Average number of live integer physical registers."""
        if self.occupancy_samples == 0:
            return 0.0
        return self.int_regs_in_use_sum / self.occupancy_samples

    @property
    def mean_fp_regs_in_use(self) -> float:
        """Average number of live FP physical registers."""
        if self.occupancy_samples == 0:
            return 0.0
        return self.fp_regs_in_use_sum / self.occupancy_samples


@dataclass
class SimulationResult:
    """Frozen outcome of one benchmark run on one processor configuration.

    Every dict it holds (``mean_iq_occupancy``, ``domain_cycles``,
    ``domain_voltages``, the ``energy`` breakdown's dicts, each
    ``dvfs_trace`` record and the dicts inside it) is built in key order.
    That is the order of the sorted JSON rendering the results store keeps,
    so a stored result decodes exactly as it was built.
    """

    processor: str                  # 'base' or 'gals'
    benchmark: str
    committed_instructions: int
    elapsed_ns: float
    reference_cycles: float         # elapsed time in nominal clock periods
    ipc: float
    mean_slip_ns: float
    mean_fifo_time_ns: float
    misspeculated_fraction: float
    fetched_instructions: int
    wrong_path_fetched: int
    branch_misprediction_rate: float
    icache_miss_rate: float
    dcache_miss_rate: float
    l2_miss_rate: float
    mean_rob_occupancy: float
    mean_int_regs_in_use: float
    mean_fp_regs_in_use: float
    mean_iq_occupancy: Dict[str, float] = field(default_factory=dict)
    domain_cycles: Dict[str, int] = field(default_factory=dict)
    domain_voltages: Dict[str, float] = field(default_factory=dict)
    energy: Optional[EnergyBreakdown] = None
    recoveries: int = 0
    #: per-control-epoch telemetry/decision trace recorded when an online
    #: DVFS controller drives the run (None without a controller); each entry
    #: holds the epoch boundary time, epoch IPC and energy, and the
    #: per-domain slowdowns/voltages in force after the decision
    dvfs_trace: Optional[list] = None

    # ----------------------------------------------------------- derived
    @property
    def total_energy_nj(self) -> float:
        """Total energy of the run in nJ (0.0 when power was not accounted)."""
        return self.energy.total_energy_nj if self.energy else 0.0

    @property
    def average_power_w(self) -> float:
        """Average power of the run in watts."""
        return self.energy.average_power_w if self.energy else 0.0

    @property
    def fifo_slip_fraction(self) -> float:
        """Share of the slip spent in inter-domain FIFOs (Figure 7)."""
        if self.mean_slip_ns <= 0:
            return 0.0
        return min(1.0, self.mean_fifo_time_ns / self.mean_slip_ns)

    def summary(self) -> str:
        """One-paragraph human-readable summary."""
        lines = [
            f"{self.processor} / {self.benchmark}: "
            f"{self.committed_instructions} instructions in "
            f"{self.elapsed_ns:.1f} ns ({self.ipc:.2f} IPC)",
            f"  slip {self.mean_slip_ns:.2f} ns "
            f"({self.fifo_slip_fraction * 100:.1f}% in FIFOs), "
            f"mis-speculated {self.misspeculated_fraction * 100:.1f}% of fetches",
            f"  energy {self.total_energy_nj:.1f} nJ, "
            f"power {self.average_power_w:.2f} W",
        ]
        return "\n".join(lines)


@dataclass
class ComparisonRow:
    """GALS result normalised to the base result (one bar group of Figs 5-9)."""

    benchmark: str
    relative_performance: float     # base time / GALS time  (< 1: GALS slower)
    relative_energy: float          # GALS energy / base energy
    relative_power: float           # GALS power / base power
    slip_ratio: float               # GALS slip / base slip
    base_slip_ns: float
    gals_slip_ns: float
    gals_fifo_slip_fraction: float
    base_misspeculation: float
    gals_misspeculation: float
    base_result: Optional[SimulationResult] = None
    gals_result: Optional[SimulationResult] = None

    @property
    def performance_drop(self) -> float:
        """Fractional slowdown of the GALS machine (0.10 = 10 % slower)."""
        return 1.0 - self.relative_performance

    @property
    def power_saving(self) -> float:
        """Fractional GALS power saving vs base."""
        return 1.0 - self.relative_power

    @property
    def energy_increase(self) -> float:
        """Fractional GALS energy increase vs base."""
        return self.relative_energy - 1.0


def compare(base: SimulationResult, gals: SimulationResult) -> ComparisonRow:
    """Normalise a GALS run against its base run (same benchmark)."""
    if base.benchmark != gals.benchmark:
        raise ValueError(f"comparing different benchmarks: "
                         f"{base.benchmark!r} vs {gals.benchmark!r}")
    if base.elapsed_ns <= 0 or gals.elapsed_ns <= 0:
        raise ValueError("both runs must have positive elapsed time")
    relative_performance = base.elapsed_ns / gals.elapsed_ns
    relative_energy = (gals.total_energy_nj / base.total_energy_nj
                       if base.total_energy_nj > 0 else 0.0)
    relative_power = (gals.average_power_w / base.average_power_w
                      if base.average_power_w > 0 else 0.0)
    slip_ratio = (gals.mean_slip_ns / base.mean_slip_ns
                  if base.mean_slip_ns > 0 else 0.0)
    return ComparisonRow(
        benchmark=base.benchmark,
        relative_performance=relative_performance,
        relative_energy=relative_energy,
        relative_power=relative_power,
        slip_ratio=slip_ratio,
        base_slip_ns=base.mean_slip_ns,
        gals_slip_ns=gals.mean_slip_ns,
        gals_fifo_slip_fraction=gals.fifo_slip_fraction,
        base_misspeculation=base.misspeculated_fraction,
        gals_misspeculation=gals.misspeculated_fraction,
        base_result=base,
        gals_result=gals,
    )


def geometric_mean(values) -> float:
    """Geometric mean of positive values (used for suite-level summaries)."""
    values = list(values)
    if not values:
        raise ValueError("geometric_mean of an empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric_mean requires positive values")
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def arithmetic_mean(values) -> float:
    """Arithmetic mean (the paper quotes arithmetic averages)."""
    values = list(values)
    if not values:
        raise ValueError("arithmetic_mean of an empty sequence")
    return ordered_sum(values) / len(values)
