"""Phase-structured trace generation: workloads that change regime mid-run.

The paper's evaluation (and this repo's golden scenarios) use *stationary*
workload mixes -- one behaviour profile per run.  Online DVFS controllers,
however, only earn their keep when the workload changes regime while the
machine is running.  :class:`PhasedWorkload` composes the existing
profile-driven synthetic generators (:mod:`repro.workloads.synthetic`) and
assembled kernels (:mod:`repro.workloads.kernels`) into multi-phase traces
under three schedule kinds, named by a :class:`~repro.workloads.profiles.PhasedMix`:

* ``static`` -- each segment runs once, in order, splitting the instruction
  budget by the mix's weights;
* ``oscillating`` -- segments alternate every ``period`` instructions;
* ``hotset`` -- one base segment whose data working set is rescaled every
  ``period`` instructions, so the hot set drifts while the instruction mix
  stays put.

Everything is deterministic per ``(mix, seed, kernel_size)``: the phase plan
is pure arithmetic over the instruction budget, and each phase's instructions
come from a *fresh* per-phase generator seeded by :meth:`PhasedWorkload.phase_seed`,
so a phase's records equal exactly what its segment generator would produce
standalone (the composition property the test suite pins).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from .._compat import ordered_sum
from ..isa.trace import ListTraceSource, TraceInstruction
from .kernels import KERNELS
from .profiles import PHASE_OSCILLATING, PHASE_STATIC, PhasedMix, get_profile
from .synthetic import SyntheticWorkload


@dataclass(frozen=True)
class PhasePlacement:
    """One phase of a planned phased trace: which segment runs where."""

    #: position of this phase in the schedule (0-based)
    index: int
    #: base workload supplying the phase ("gcc", "kernel:dot_product", ...)
    segment: str
    #: global index of the phase's first instruction
    start: int
    #: number of instructions in the phase
    length: int
    #: working-set multiplier applied to the segment profile (hotset mixes)
    working_set_scale: float = 1.0

    @property
    def end(self) -> int:
        """Global index one past the phase's last instruction."""
        return self.start + self.length


class PhasedWorkload:
    """Deterministic multi-phase workload assembled from a named mix."""

    def __init__(self, mix: PhasedMix, seed: int = 1,
                 kernel_size: int = 64) -> None:
        self.mix = mix
        self.seed = seed
        self.kernel_size = kernel_size
        self.name = f"phased:{mix.name}"
        self._wrong_path_delegate: Optional[SyntheticWorkload] = None

    # ------------------------------------------------------------- schedule
    def phase_seed(self, index: int) -> int:
        """Seed for phase ``index``'s segment generator.

        A pure function of ``(self.seed, index)`` so that every rebuild --
        serial, spawn-pool worker, or store round-trip -- draws identical
        per-phase instruction streams, and so tests can reproduce one phase
        standalone through its segment generator.
        """
        return self.seed * 1_000_003 + index * 8191

    def plan(self, num_instructions: int) -> Tuple[PhasePlacement, ...]:
        """The phase schedule for a run of ``num_instructions``.

        Pure arithmetic over the budget: static mixes split it by weight,
        oscillating and hotset mixes cut it into ``period``-long phases (the
        last phase absorbs any remainder).  Zero-length phases are dropped.
        """
        if num_instructions <= 0:
            raise ValueError("num_instructions must be positive")
        mix = self.mix
        placements: List[PhasePlacement] = []
        if mix.kind == PHASE_STATIC:
            weights = mix.weights or (1.0,) * len(mix.segments)
            total_weight = ordered_sum(weights)
            start = 0
            running = 0.0
            for i, (segment, weight) in enumerate(zip(mix.segments, weights)):
                running += weight
                end = round(num_instructions * running / total_weight)
                if end > start:
                    placements.append(PhasePlacement(
                        index=len(placements), segment=segment,
                        start=start, length=end - start))
                start = end
            return tuple(placements)
        # oscillating / hotset: fixed-cadence phases
        start = 0
        while start < num_instructions:
            length = min(mix.period, num_instructions - start)
            i = len(placements)
            if mix.kind == PHASE_OSCILLATING:
                segment = mix.segments[i % len(mix.segments)]
                scale = 1.0
            else:  # PHASE_HOTSET
                segment = mix.segments[i % len(mix.segments)]
                scale = mix.hot_scales[i % len(mix.hot_scales)]
            placements.append(PhasePlacement(
                index=i, segment=segment, start=start, length=length,
                working_set_scale=scale))
            start += length
        return tuple(placements)

    # ----------------------------------------------------------- generation
    def segment_workload(self, placement: PhasePlacement
                         ) -> Optional[SyntheticWorkload]:
        """The synthetic generator for one phase (None for kernel phases)."""
        if placement.segment.startswith("kernel:"):
            return None
        profile = get_profile(placement.segment)
        if placement.working_set_scale != 1.0:
            scaled = max(1, round(profile.working_set_kb
                                  * placement.working_set_scale))
            profile = replace(profile, working_set_kb=scaled)
        return SyntheticWorkload(profile, seed=self.phase_seed(placement.index))

    def _segment_records(self, placement: PhasePlacement
                         ) -> List[TraceInstruction]:
        workload = self.segment_workload(placement)
        if workload is not None:
            if self._wrong_path_delegate is None:
                self._wrong_path_delegate = workload
            return list(workload.trace(placement.length))
        # Kernel phase: the assembled program is deterministic and typically
        # shorter than the phase, so tile copies of its dynamic trace until
        # the phase budget is filled (copies, because concatenation re-indexes
        # the records in place).
        kernel = KERNELS[placement.segment[len("kernel:"):]]
        base = list(kernel.trace(self.kernel_size,
                                 stop_after=placement.length))
        records: List[TraceInstruction] = []
        while len(records) < placement.length:
            for instr in base:
                if len(records) >= placement.length:
                    break
                records.append(replace(instr))
        return records

    def trace(self, num_instructions: int) -> ListTraceSource:
        """Generate the phased correct-path trace.

        Unlike :meth:`SyntheticWorkload.trace` this is a *pure* function of
        ``(mix, seed, kernel_size, num_instructions)``: repeated calls return
        identical records because every phase rebuilds its segment generator
        from :meth:`phase_seed` rather than advancing shared RNG state.
        """
        instructions: List[TraceInstruction] = []
        for placement in self.plan(num_instructions):
            instructions.extend(self._segment_records(placement))
        for index, instr in enumerate(instructions):
            instr.index = index
        return ListTraceSource(instructions, name=self.name)

    def wrong_path_source(self) -> Optional[SyntheticWorkload]:
        """The generator whose wrong-path model the fetch unit should use.

        The first profile-driven phase's generator (wrong-path synthesis is a
        pure function of the fetch pc, so one delegate serves the whole run);
        None when every phase is a kernel, matching plain kernel workloads.
        """
        if self._wrong_path_delegate is None:
            for placement in self.plan(max(1, self.mix.period)):
                workload = self.segment_workload(placement)
                if workload is not None:
                    self._wrong_path_delegate = workload
                    break
        return self._wrong_path_delegate

    # -------------------------------------------------------------- display
    def describe_schedule(self, num_instructions: int) -> str:
        """Human-readable phase schedule (used by ``repro show``)."""
        lines = [f"phased workload {self.mix.name!r} ({self.mix.kind}), "
                 f"{num_instructions} instructions:"]
        for p in self.plan(num_instructions):
            scale = ("" if p.working_set_scale == 1.0
                     else f"  ws x{p.working_set_scale:g}")
            lines.append(f"  phase {p.index:>2}  [{p.start:>6}, {p.end:>6})  "
                         f"{p.segment}{scale}")
        return "\n".join(lines)
