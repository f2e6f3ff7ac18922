"""Per-cycle, per-block energy accounting (the Wattch integration layer).

A :class:`PowerAccountant` owns the set of macro-block energy models, knows
which clock domain each block belongs to, and observes every domain's clock
edge.  On each edge it drains that cycle's access counts from the shared
:class:`~repro.power.activity.ActivityCounters`, charges each block its cycle
energy (full, utilisation-scaled, or 10 %-idle; clock grids are never gated)
at the domain's current supply voltage, and accumulates the results.

The domain tick makes one call per edge, ``active_edge``
(:meth:`~repro.sim.clock.ClockDomain.attach_power_probe`).  A block with
accesses pending is charged *eagerly*: its cycle energy is added to the
block's float accumulator on that edge.  A block with none is not touched:
its idle gap (``domain edges - edges the cell is charged through``) is
charged *lazily*, as one addition of the idle cycle energy per idle edge,
at the block's next active edge, at the first edge after a voltage change
(at the old voltage) or at a flush -- all within one voltage run, so the
gap's idle energy is a single constant.  Always-on blocks (clock grids) are
charged the same way, once per voltage run.  Every accumulator therefore receives **one float addition per edge, in edge
order** -- never reassociated -- so every observable number is bit-equal to
an eager per-edge loop, whenever the lazy charges land.  The flush points
copy the accumulators into :attr:`PowerAccountant.energy_by_block`:
:meth:`total_energy` / :meth:`breakdown` (and the ``energy_by_block`` view),
the DVFS controller's epoch sampling and the end of a run.

The output is an :class:`EnergyBreakdown` -- total energy, average power and
the per-macro-block split of Figure 10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Dict, List, Optional

from .._compat import ordered_sum
from ..sim.clock import ClockDomain
from .activity import ActivityCounters
from .blocks import BREAKDOWN_CATEGORIES, BlockEnergyModel
from .technology import DEFAULT_TECHNOLOGY, TechnologyParameters

# Gated-cell layout.  Slots 0-1 belong to ActivityCounters ([pending,
# total]); the accountant extends the same list so the per-edge probe and the
# pipeline producers share one object with no dictionary in between.  The
# per-edge code indexes the literals; these names document them.
_C_PENDING = 0        # accesses recorded since the domain's last edge
_C_TOTAL = 1          # cumulative drained accesses
_C_ACC = 2            # energy charged so far (nJ), through edge _C_SEEN
_C_MEMO = 3           # accesses -> cycle energy at the current voltage
_C_MODEL = 4          # the BlockEnergyModel
_C_IDLE_E = 5         # cycle energy of a zero-access cycle at current voltage
_C_NAME = 6           # block name (flush target in energy_by_block)
_C_SEEN = 7           # domain edge count this cell is charged through

# Ungated (always-on) cell layout: [model, name, cycle energy at the
# current voltage, energy charged so far through edge _S_RUN_START].

# Domain state vector shared with the per-edge probe.
_S_VDD = 0            # voltage of the open run (None before the first edge)
_S_EDGES = 1          # edges accounted for this domain since creation
_S_RUN_START = 2      # edges through which the ungated cells are charged


def _charge(acc: float, energy: float, edges: int) -> float:
    """``acc`` plus ``energy`` once per edge: ``edges`` separate additions,
    exactly the eager per-edge sequence (never ``energy * edges``)."""
    for _ in repeat(None, edges):
        acc += energy
    return acc


def _settle(record: list) -> None:
    """Charge a domain's idle gaps and always-on run through its last edge."""
    state, gated, ungated = record
    edges = state[1]
    for cell in gated:
        gap = edges - cell[7]
        if gap:
            cell[7] = edges
            cell[2] = _charge(cell[2], cell[5], gap)
    run = edges - state[2]
    if run:
        state[2] = edges
        for cell in ungated:
            cell[3] = _charge(cell[3], cell[2], run)


@dataclass
class EnergyBreakdown:
    """Result of a power-accounted simulation run."""

    by_block: Dict[str, float] = field(default_factory=dict)
    by_category: Dict[str, float] = field(default_factory=dict)
    by_domain: Dict[str, float] = field(default_factory=dict)
    total_energy_nj: float = 0.0
    elapsed_ns: float = 0.0

    @property
    def average_power_w(self) -> float:
        """Average power in watts (nJ / ns == W)."""
        if self.elapsed_ns <= 0:
            return 0.0
        return self.total_energy_nj / self.elapsed_ns

    def category_share(self, category: str) -> float:
        """Fraction of total energy spent in one reporting category."""
        if self.total_energy_nj <= 0:
            return 0.0
        return self.by_category.get(category, 0.0) / self.total_energy_nj

    def normalised_to(self, reference: "EnergyBreakdown") -> Dict[str, float]:
        """Energy of each category normalised to a reference run (Figure 10)."""
        if reference.total_energy_nj <= 0:
            raise ValueError("reference breakdown has no energy")
        return {category: self.by_category.get(category, 0.0)
                / reference.total_energy_nj
                for category in BREAKDOWN_CATEGORIES}


class PowerAccountant:
    """Per-edge energy accounting over every clock domain, flushed on read."""

    def __init__(self, activity: ActivityCounters,
                 tech: TechnologyParameters = DEFAULT_TECHNOLOGY) -> None:
        self.activity = activity
        self.tech = tech
        self._blocks_by_domain: Dict[str, List[BlockEnergyModel]] = {}
        self._domains: Dict[str, ClockDomain] = {}
        self._block_domain: Dict[str, str] = {}
        self._energy_by_block: Dict[str, float] = {}
        #: per-domain [state, gated_cells, ungated_cells]
        self._records: Dict[str, list] = {}

    @property
    def energy_by_block(self) -> Dict[str, float]:
        """Accumulated energy per block (nJ), flushed to the current edge.

        Reading this property is an observation point: lazy idle charges are
        applied first, so the returned (live) dict is always current.
        """
        self.flush()
        return self._energy_by_block

    # ------------------------------------------------------------ registration
    def register_block(self, model: BlockEnergyModel, domain: ClockDomain) -> None:
        """Assign a block model to the clock domain that charges it.

        Registering into a domain that has already accumulated edges flushes
        first, so the new block is only charged from this point on.
        """
        if model.name in self._block_domain:
            raise ValueError(f"block {model.name!r} registered twice")
        record = self._records.get(domain.name)
        if record is None:
            #          state,       gated, ungated
            record = [[None, 0, 0], [], []]
            # attach first: a bound domain refuses, leaving no record behind
            domain.attach_power_probe(self._make_probe(domain, record))
            self._records[domain.name] = record
            self._domains[domain.name] = domain
        else:
            self.flush()
        state = record[0]
        vdd = state[0]
        # joining an already-running domain: the voltage run is open, so
        # derive the idle cycle energy now (rebuild only runs on the next
        # voltage change)
        idle_e = (model.cycle_energy(0, vdd, self.tech)
                  if vdd is not None else 0.0)
        self._blocks_by_domain.setdefault(domain.name, []).append(model)
        self._block_domain[model.name] = domain.name
        self._energy_by_block[model.name] = 0.0
        if model.gated:
            cell = self.activity.cell(model.name)
            if len(cell) != 2:  # pragma: no cover - block shared across accountants
                raise ValueError(f"block {model.name!r} already has an "
                                 "accounting cell")
            cell.extend([0.0, {}, model, idle_e, model.name, state[1]])
            record[1].append(cell)
        else:
            # Always-on blocks (clock grids): per-edge energy depends only on
            # the voltage, so they are charged per voltage run and nothing
            # touches them on the per-edge path.
            record[2].append([model, model.name, idle_e, 0.0])

    def _make_probe(self, domain: ClockDomain, record: list
                    ) -> Callable[[], None]:
        """Build the per-edge ``active_edge`` callable for one domain.

        The domain tick calls it once per edge.  An edge with no pending
        accesses only advances the edge counter; a cell with accesses is
        charged its idle gap and then this edge's cycle energy.
        ``cycle_energy`` is a pure function of the access count for a fixed
        block, supply voltage and technology, and per-cycle access counts
        are tiny integers, so each cell keeps a memo of exact cycle energies
        by access count (invalidated whenever the domain voltage changes).
        """
        state, gated, ungated = record
        tech = self.tech

        def rebuild(vdd: float) -> None:
            # Voltage changed: charge every idle gap and the always-on run at
            # the old voltage first, then re-derive the energies at the new one.
            _settle(record)
            for cell in gated:
                cell[3].clear()
                cell[5] = cell[4].cycle_energy(0, vdd, tech)
            for cell in ungated:
                cell[2] = cell[0].cycle_energy(0, vdd, tech)
            state[0] = vdd

        def active_edge() -> None:
            vdd = domain.voltage
            if vdd != state[0]:
                rebuild(vdd)
            edges = state[1]
            edges_after = edges + 1
            state[1] = edges_after
            for cell in gated:
                accesses = cell[0]
                if not accesses:
                    continue          # idle cell: its gap grows for free
                cell[0] = 0
                cell[1] += accesses
                acc = cell[2]
                gap = edges - cell[7]
                if gap:
                    idle_e = cell[5]
                    for _ in repeat(None, gap):
                        acc += idle_e
                cell[7] = edges_after
                try:
                    cell[2] = acc + cell[3][accesses]
                except KeyError:
                    e = cell[3][accesses] = cell[4].cycle_energy(accesses,
                                                                 vdd, tech)
                    cell[2] = acc + e

        return active_edge

    # ----------------------------------------------------------------- flush
    def flush(self) -> None:
        """Charge every pending idle gap and copy the accumulators out.

        Gaps are charged in edge order -- one float addition per edge per
        block, exactly the additions the eager implementation performed --
        so flushed totals are bit-identical no matter when (or how often)
        the flush happens.
        """
        energy = self._energy_by_block
        for record in self._records.values():
            _settle(record)
            for cell in record[1]:
                energy[cell[6]] = cell[2]
            for cell in record[2]:
                energy[cell[1]] = cell[3]

    # ----------------------------------------------------------------- results
    def total_energy(self) -> float:
        """Total accumulated energy over every block, in nJ (flushes first)."""
        self.flush()
        return ordered_sum(self._energy_by_block.values())

    def breakdown(self, elapsed_ns: Optional[float] = None) -> EnergyBreakdown:
        """Snapshot the accumulated energy as an :class:`EnergyBreakdown`."""
        self.flush()
        categories: Dict[str, float] = {}
        domains: Dict[str, float] = {}
        model_by_name = {m.name: m
                         for models in self._blocks_by_domain.values()
                         for m in models}
        for name, energy in self._energy_by_block.items():
            category = model_by_name[name].category
            categories[category] = categories.get(category, 0.0) + energy
            domain = self._block_domain[name]
            domains[domain] = domains.get(domain, 0.0) + energy
        if elapsed_ns is None:
            elapsed_ns = max((domain.last_edge_time
                              for domain in self._domains.values()),
                             default=0.0)
        # the sums above run in block order (the bit-identity contract);
        # the result's dicts are in key order (see SimulationResult)
        return EnergyBreakdown(
            by_block=dict(sorted(self._energy_by_block.items())),
            by_category=dict(sorted(categories.items())),
            by_domain=dict(sorted(domains.items())),
            total_energy_nj=ordered_sum(self._energy_by_block.values()),
            elapsed_ns=elapsed_ns,
        )
