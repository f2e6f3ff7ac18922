"""Instruction fetch unit (clock domain 1: I-cache + branch predictor).

Per clock edge the fetch unit reads up to ``fetch_width`` instructions from
the correct-path trace, predicts conditional branches, and pushes the fetched
instructions into the fetch->decode channel (a plain pipeline queue in the
synchronous machine, a mixed-clock FIFO in the GALS machine).

Misprediction handling is where the GALS performance loss largely comes from:
when a branch is fetched with a wrong prediction the fetch unit keeps fetching
*wrong-path* instructions -- synthesised by the workload -- until the redirect
message, sent by the execution cluster at branch resolution, arrives through
the redirect channel.  In the GALS machine that message has to cross a FIFO
into the fetch clock domain, so the wrong-path episode is longer and more
speculative work is wasted (Figure 8), and the recovery pipeline is
effectively longer (Section 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..isa.instructions import InstructionClass
from ..isa.program import INSTRUCTION_SIZE
from ..isa.trace import InstructionSource, ListTraceSource, TraceInstruction
from ..memory.hierarchy import MemoryHierarchy
from ..sim.channel import Channel
from ..sim.clock import Clock
from .branch_predictor import BranchUnit
from .instruction import DynamicInstruction


@dataclass
class RedirectMessage:
    """Message sent from branch resolution back to fetch."""

    epoch: int
    branch_seq: int
    resume_pc: int


def _default_wrong_path(pc: int, offset: int) -> TraceInstruction:
    """Fallback wrong-path instruction generator (simple integer mix)."""
    classes = (InstructionClass.INT_ALU, InstructionClass.INT_ALU,
               InstructionClass.LOAD, InstructionClass.INT_ALU)
    opclass = classes[offset % len(classes)]
    return TraceInstruction(index=-1, pc=pc, opclass=opclass, dest=1 + (offset % 20),
                            sources=(1 + ((offset * 3) % 20),),
                            mem_address=0x2000_0000 + (offset * 64) % 65536
                            if opclass is InstructionClass.LOAD else None)


class FetchUnit:
    """Fetches from the trace through an I-cache and branch predictor."""

    def __init__(
        self,
        source: InstructionSource,
        output_channel: Channel,
        redirect_channel: Channel,
        branch_unit: BranchUnit,
        memory: MemoryHierarchy,
        clock: Clock,
        activity,
        fetch_width: int = 4,
        wrong_path_generator: Optional[Callable[[int, int], TraceInstruction]] = None,
    ) -> None:
        self.source = source
        #: direct view of a list-backed source (the common case): peeking and
        #: consuming happen once per fetched instruction, so the method-call
        #: round trips through InstructionSource are inlined when possible
        self._source_list = (source._instructions
                             if isinstance(source, ListTraceSource) else None)
        self.output_channel = output_channel
        self.redirect_channel = redirect_channel
        self.branch_unit = branch_unit
        self.memory = memory
        #: the fetch domain's clock (see ExecutionUnit._clock)
        self._clock = clock
        self.activity = activity
        #: direct handles on the per-cycle counter cells (see DecodeRenameUnit)
        self._icache_cell = activity.cell("icache")
        self._bpred_cell = activity.cell("bpred")
        self.fetch_width = fetch_width
        self.wrong_path_generator = wrong_path_generator or _default_wrong_path

        self.epoch = 0
        self.wrong_path_mode = False
        self._wrong_path_pc = 0
        self._wrong_path_offset = 0
        self._busy_until = float("-inf")
        # Same-line fetch fast path: a repeat hit on the hierarchy's
        # remembered fetch line is just the statistics increments.  The
        # remembered line itself lives on the MemoryHierarchy (one source of
        # truth -- its flush() is the invalidation point); reading it here
        # only short-circuits the call.
        self._line_size = memory.config.line_size

        # statistics
        self.fetched_total = 0
        self.fetched_wrong_path = 0
        self.fetch_stall_cycles = 0
        self.icache_stall_cycles = 0
        self.redirects_received = 0
        #: run-length-deferred fetch-queue occupancy sampling: consecutive
        #: edges observing the same queue length accumulate in ``_sample_run``
        #: and are folded into the channel's integer counters on change/read
        self._sample_len = -1
        self._sample_run = 0

    # ---------------------------------------------------------------- helpers
    def _check_redirect(self, now: float) -> None:
        pop_ready = self.redirect_channel.pop_ready
        while True:
            message: RedirectMessage = pop_ready(now)
            if message is None:
                break
            self.redirects_received += 1
            if message.epoch > self.epoch:
                self.epoch = message.epoch
                self.wrong_path_mode = False
                # Abandon any wrong-path I-cache miss in flight: the front end
                # restarts on the correct path immediately.
                self._busy_until = now

    def _enter_wrong_path(self, after_pc: int) -> None:
        self.wrong_path_mode = True
        self._wrong_path_pc = after_pc + INSTRUCTION_SIZE
        self._wrong_path_offset = 0

    # --------------------------------------------------------------- clocking
    def clock_edge(self, cycle: int, time: float) -> None:
        """One fetch-domain cycle: honour redirects, fetch up to ``fetch_width`` instructions into the fetch queue."""
        if self.redirect_channel._entries:
            self._check_redirect(time)
        output_channel = self.output_channel
        entries_len = len(output_channel._entries)
        if entries_len == self._sample_len:
            self._sample_run += 1
        else:
            run = self._sample_run
            if run:
                self._sample_run = 0
                output_channel.occupancy_samples += run
                output_channel.occupancy_accum += self._sample_len * run
            output_channel.occupancy_samples += 1
            output_channel.occupancy_accum += entries_len
            self._sample_len = entries_len
        if time < self._busy_until:
            self.icache_stall_cycles += 1
            return
        wrong_path = self.wrong_path_mode
        if wrong_path:
            first_pc = self._wrong_path_pc
        else:
            source_list = self._source_list
            if source_list is not None:
                position = self.source._position
                if position >= len(source_list):
                    return
                first_pc = source_list[position].pc
            else:
                peeked = self.source.peek()
                if peeked is None:
                    return
                first_pc = peeked.pc

        self._icache_cell[0] += 1
        memory = self.memory
        line = first_pc // self._line_size
        if line == memory._last_fetch_line:
            stats = memory.icache.stats
            stats.accesses += 1
            stats.hits += 1
        else:
            latency = memory.fetch_access(first_pc)
            if latency > memory.config.il1_latency:
                # Miss: the front end stalls until the line arrives.
                self._busy_until = time + latency * self._clock.period
                self.icache_stall_cycles += 1
                return

        # The correct-path, list-backed case (every real workload) is inlined:
        # it runs once per fetched instruction.  Wrong-path and generic
        # sources go through _fetch_one.  A mispredicted branch flips
        # wrong_path_mode but also ends the group, so the mode chosen here is
        # stable for the whole loop.
        source_list = None if wrong_path else self._source_list
        source = self.source
        branch_unit = self.branch_unit
        epoch = self.epoch
        # Producer-side space is stable within the cycle (consumers pop on
        # their own edges): one grant count covers the whole fetch group.
        free = output_channel.free_slots(time)
        fetched_this_cycle = 0
        while fetched_this_cycle < self.fetch_width:
            if free <= 0:
                output_channel.record_full_stall()
                self.fetch_stall_cycles += 1
                break
            if source_list is not None:
                position = source._position
                if position >= len(source_list):
                    break
                source._position = position + 1
                trace = source_list[position]
                instr = DynamicInstruction(trace, epoch=epoch,
                                           wrong_path=False)
                instr.fetch_time = time
                self.fetched_total += 1
                if trace.is_branch:
                    predicted_taken, _target = branch_unit.predict(trace.pc)
                    self._bpred_cell[0] += 1
                    instr.predicted_taken = predicted_taken
                    if predicted_taken != trace.taken:
                        instr.mispredicted = True
                        self._enter_wrong_path(trace.pc)
                elif instr.is_control:
                    # Unconditional jumps: correctly predicted (BTB hit).
                    self._bpred_cell[0] += 1
                    instr.predicted_taken = True
            else:
                instr = self._fetch_one(time)
                if instr is None:
                    break
            output_channel.push_granted(instr, time)
            free -= 1
            fetched_this_cycle += 1
            # A predicted-taken control instruction ends the fetch group.
            if instr.is_control and (instr.predicted_taken or instr.trace.opclass
                                     is InstructionClass.JUMP):
                break
            # A misprediction also ends useful fetching for this group; wrong
            # path continues next cycle.
            if instr.mispredicted:
                break

    def _fetch_one(self, time: float) -> Optional[DynamicInstruction]:
        if self.wrong_path_mode:
            trace = self.wrong_path_generator(self._wrong_path_pc,
                                              self._wrong_path_offset)
            self._wrong_path_pc += INSTRUCTION_SIZE
            self._wrong_path_offset += 1
            instr = DynamicInstruction(trace, epoch=self.epoch, wrong_path=True)
            instr.fetch_time = time
            self.fetched_total += 1
            self.fetched_wrong_path += 1
            return instr

        source_list = self._source_list
        if source_list is not None:
            source = self.source
            position = source._position
            if position >= len(source_list):
                return None
            source._position = position + 1
            trace = source_list[position]
        else:
            trace = self.source.next()
            if trace is None:
                return None
        instr = DynamicInstruction(trace, epoch=self.epoch, wrong_path=False)
        instr.fetch_time = time
        self.fetched_total += 1

        if trace.is_branch:
            predicted_taken, _predicted_target = self.branch_unit.predict(trace.pc)
            self._bpred_cell[0] += 1
            instr.predicted_taken = predicted_taken
            if predicted_taken != trace.taken:
                instr.mispredicted = True
                self._enter_wrong_path(trace.pc)
        elif instr.is_control:
            # Unconditional jumps are assumed correctly predicted (BTB hit).
            self._bpred_cell[0] += 1
            instr.predicted_taken = True
        return instr

    def flush_samples(self) -> None:
        """Fold the deferred fetch-queue occupancy run into the counters."""
        run = self._sample_run
        if run:
            self._sample_run = 0
            channel = self.output_channel
            channel.occupancy_samples += run
            channel.occupancy_accum += self._sample_len * run

    # ------------------------------------------------------------------ state
    def pending_work(self) -> int:
        """Items still queued toward decode (used by the drain check)."""
        return self.output_channel.occupancy
