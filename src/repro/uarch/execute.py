"""Issue/execute units: functional-unit pools and per-domain execution engines.

The GALS processor has three execution clock domains (Figure 3b): integer
issue queue + integer ALUs, floating-point issue queue + FP ALUs, and the
memory issue queue + data cache + L2.  Keeping the queue and its functional
units in the same clock domain is a deliberate choice the paper explains:
dependent instructions inside one queue can still issue back-to-back.

Each :class:`ExecutionUnit` is one such block.  Per clock edge it

1. retires finished operations (marking results ready and resolving branches,
   which may trigger misprediction recovery),
2. drains newly dispatched instructions from its input channel into the
   issue queue,
3. wakes up and selects ready instructions and starts them on free functional
   units, adding data-cache latency for loads.

The same class, instantiated three times and placed in a single clock domain,
forms the execution core of the synchronous baseline.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..isa.instructions import DEFAULT_LATENCIES, InstructionClass, latency_of
from ..memory.hierarchy import MemoryHierarchy
from ..sim.channel import Channel
from ..sim.clock import Clock
from ..sim.hotcore import wake_waiters
from .branch_predictor import BranchUnit
from .instruction import DynamicInstruction
from .issue_queue import ForwardingLatency, IssueQueue
from .regfile import PhysicalRegisterFile

# Unpipelined classes (full-latency functional-unit occupancy) are flagged
# by the ``unpipelined`` attribute stamped on InstructionClass members.

_INF = float("inf")


class FunctionalUnitPool:
    """A pool of identical functional units with per-unit busy tracking."""

    def __init__(self, name: str, count: int) -> None:
        if count <= 0:
            raise ValueError("functional unit count must be positive")
        self.name = name
        self.count = count
        self._busy_until: List[float] = [float("-inf")] * count
        self.operations = 0
        self.structural_stalls = 0


class ExecutionUnit:
    """Issue queue + functional units for one execution cluster."""

    def __init__(
        self,
        name: str,
        domain_name: str,
        issue_queue: IssueQueue,
        input_channel: Channel,
        regfile: PhysicalRegisterFile,
        forwarding_latency: ForwardingLatency,
        clock: Clock,
        functional_units: FunctionalUnitPool,
        issue_width: int,
        activity,
        alu_block: str,
        queue_block: str,
        branch_unit: Optional[BranchUnit] = None,
        recovery_callback: Optional[Callable[[DynamicInstruction, float], None]] = None,
        memory: Optional[MemoryHierarchy] = None,
        latencies: Optional[Dict[InstructionClass, int]] = None,
    ) -> None:
        self.name = name
        self.domain_name = domain_name
        self.issue_queue = issue_queue
        self.input_channel = input_channel
        self.regfile = regfile
        self.forwarding_latency = forwarding_latency
        #: the domain's clock: ``.period`` is a plain attribute read on the
        #: issue hot path (retiming mutates the Clock in place)
        self._clock = clock
        self.functional_units = functional_units
        self.issue_width = issue_width
        self.activity = activity
        #: direct handles on the per-cycle counter cells (see DecodeRenameUnit)
        self._regwrite_cell = activity.cell("regfile_write")
        self._resultbus_cell = activity.cell("resultbus")
        self._dcache_cell = activity.cell("dcache")
        self._alu_cell = activity.cell(alu_block)
        self._queue_cell = activity.cell(queue_block)
        self.alu_block = alu_block
        self.queue_block = queue_block
        self.branch_unit = branch_unit
        self.recovery_callback = recovery_callback
        self.memory = memory
        self.latencies = latencies or dict(DEFAULT_LATENCIES)
        #: fully resolved per-class latency table (overrides + defaults)
        self._latency_map: Dict[InstructionClass, int] = {
            opclass: latency_of(opclass, self.latencies)
            for opclass in InstructionClass
        }
        #: the same table flattened by ``opclass.op_index`` for the issue hot
        #: loop (a list index beats an enum-keyed dict lookup), paired with
        #: the functional-unit occupancy of each class
        self._latency_by_op: List[int] = [
            self._latency_map[opclass] for opclass in InstructionClass]
        self._busy_by_op: List[int] = [
            self._latency_map[opclass] if opclass.unpipelined else 1
            for opclass in InstructionClass]
        #: operations in execution; each carries its completion time in
        #: ``instr.fu_done`` (set at issue)
        self._in_flight: List[DynamicInstruction] = []
        #: earliest pending completion; lets the per-edge completion scan bail
        #: out with one float compare on the (common) nothing-finished cycles
        self._next_completion: float = float("inf")
        # statistics
        self.completed_ops = 0
        self.issued_ops = 0
        self.dropped_squashed = 0
        #: deferred occupancy samples: edges where both the input channel and
        #: the window were empty (occupancy 0 for both) are counted here and
        #: folded into the eager counters on the next non-empty edge or an
        #: external read (integer run-length encoding, so totals are exact)
        self._idle_samples = 0
        # per-unit fused stage closures (stable collaborators pre-bound)
        self._drain_input = self._make_drain_input()
        self._issue_ready = self._make_issue_ready()

    # --------------------------------------------------------------- clocking
    def clock_edge(self, cycle: int, time: float) -> None:
        # Guards keep idle edges (no completions due, empty channel, empty
        # window) down to a few comparisons; each helper no-ops in exactly
        # the guarded situation, so skipping the call changes nothing.
        """One cluster cycle: writeback completions, wake up and issue ready instructions, accept dispatches."""
        if time >= self._next_completion:
            self._complete_finished(time)
        channel = self.input_channel
        issue_queue = self.issue_queue
        if channel._entries or issue_queue._entries:
            if channel._entries:
                self._drain_input(time)
            if issue_queue._entries:
                self._issue_ready(time)
            idle = self._idle_samples
            if idle:
                self._idle_samples = 0
                issue_queue.occupancy_samples += idle
                channel.occupancy_samples += idle
            issue_queue.occupancy_samples += 1
            issue_queue.occupancy_accum += len(issue_queue._entries)
            channel.occupancy_samples += 1
            channel.occupancy_accum += len(channel._entries)
        else:
            # Quiescent edge: both occupancies are zero, so the sample is a
            # run-length increment (completions above cannot refill either).
            self._idle_samples += 1

    def flush_samples(self) -> None:
        """Fold deferred quiescent-edge occupancy samples into the counters."""
        idle = self._idle_samples
        if idle:
            self._idle_samples = 0
            self.issue_queue.occupancy_samples += idle
            self.input_channel.occupancy_samples += idle

    def make_fused_edge(self, domain, engine, probe):
        """Build this cluster's fully fused per-edge closure.

        Used by :meth:`~repro.sim.clock.ClockDomain.bind` when the cluster is
        its domain's only component: one closure performs the cluster cycle,
        the deferred occupancy sampling and the power accounting call with
        no intermediate dispatch.  Channel/window list attributes are re-read
        per edge (squash and flush replace them), but everything else is
        pre-bound.
        """
        unit = self
        channel = self.input_channel
        issue_queue = self.issue_queue
        is_fifo = channel.counts_as_fifo

        def on_edge(_param: object) -> None:
            """One cluster cycle fused with accounting: complete, drain, issue, sample, charge."""
            time = engine._now
            if time >= unit._next_completion:
                unit._complete_finished(time)
            ch_entries = channel._entries
            iq_entries = issue_queue._entries
            if ch_entries or iq_entries:
                # head-visibility precheck saves the empty bulk-drain call
                # while the FIFO head is still synchronizing
                if ch_entries and (not is_fifo or ch_entries[0][2] <= time):
                    unit._drain_input(time)
                # skip the issue call outright while the ready list is
                # empty or gated (nothing can become visible yet)
                if issue_queue._ready and time >= issue_queue.ready_gate:
                    unit._issue_ready(time)
                idle = unit._idle_samples
                if idle:
                    unit._idle_samples = 0
                    issue_queue.occupancy_samples += idle
                    channel.occupancy_samples += idle
                issue_queue.occupancy_samples += 1
                issue_queue.occupancy_accum += len(issue_queue._entries)
                channel.occupancy_samples += 1
                channel.occupancy_accum += len(channel._entries)
            else:
                unit._idle_samples += 1
            domain.last_edge_time = time
            probe()
            domain.cycle += 1

        return on_edge

    # ------------------------------------------------------------ completion
    def _complete_finished(self, now: float) -> None:
        if now < self._next_completion:
            return
        in_flight = self._in_flight
        finished = [instr for instr in in_flight if instr.fu_done <= now]
        if not finished:
            self._refresh_next_completion()
            return
        # Remove the finished operations from the in-flight set *before*
        # processing them: branch resolution below may trigger misprediction
        # recovery, which squashes younger work in this very unit.
        if len(finished) == len(in_flight):
            in_flight.clear()
        else:
            self._in_flight = [instr for instr in in_flight
                               if instr.fu_done > now]
        if len(finished) > 1:
            finished.sort(key=lambda i: i.seq)
        results = 0
        registers = self.regfile._registers
        domain_name = self.domain_name
        for instr in finished:
            if instr.squashed:
                continue
            instr.completed = True
            instr.complete_time = now
            self.completed_ops += 1
            phys_dest = instr.phys_dest
            if phys_dest is not None:
                # writeback: the waiter walk (what moves blocked consumers
                # toward their queue's ready list) is hotcore.wake_waiters
                reg = registers[phys_dest]
                reg.ready_time = now
                reg.producer_domain = domain_name
                results += 1
                waiters = reg.waiters
                if waiters:
                    wake_waiters(waiters)
            if instr.is_branch and self.branch_unit is not None:
                self.branch_unit.resolve(instr.pc, instr.trace.taken,
                                         instr.predicted_taken
                                         if instr.predicted_taken is not None
                                         else False,
                                         instr.trace.target_pc)
                if instr.mispredicted and self.recovery_callback is not None:
                    self.recovery_callback(instr, now)
        if results:
            self._regwrite_cell[0] += results
            self._resultbus_cell[0] += results
        self._refresh_next_completion()

    def _refresh_next_completion(self) -> None:
        next_completion = float("inf")
        for instr in self._in_flight:
            fu_done = instr.fu_done
            if fu_done < next_completion:
                next_completion = fu_done
        self._next_completion = next_completion

    # ----------------------------------------------------------------- input
    def _make_drain_input(self):
        """Build the per-unit bulk-intake closure (stable refs pre-bound).

        The per-cycle stage bodies run thousands of times per simulated
        millisecond; binding the stable collaborators (channel, window,
        counter cells) as closure variables makes each access a local read
        instead of an attribute chain -- the same idiom the clock domains use
        for their edge closures.

        Each accepted entry is registered on the waiter list of every source
        operand whose producer has not written back yet; entries with no
        pending producer go straight onto the queue's age-ordered ready list.
        """
        unit = self
        channel = self.input_channel
        pop_bulk = channel.pop_bulk
        is_fifo = channel.counts_as_fifo
        queue = self.issue_queue
        capacity = queue.capacity
        queue_cell = self._queue_cell
        registers = self.regfile._registers
        push_ready = queue.push_ready

        def drain_input(now: float) -> None:
            # Writeback-side intake: drain the dispatch channel in bulk.
            # Each batch is bounded by the issue queue's free space; squashed
            # items do not occupy a queue slot, so the loop re-probes until
            # the queue is full or the channel has nothing more visible.
            entries = queue._entries
            drained = 0
            while True:
                space = capacity - len(entries)
                if space <= 0:
                    break
                batch = pop_bulk(now, space)
                if not batch:
                    break
                for instr, wait in batch:
                    if is_fifo and wait > 0:
                        instr.fifo_time += wait
                    if instr.squashed:
                        unit.dropped_squashed += 1
                        continue
                    # the batch is bounded by the window's free space
                    entries.append(instr)
                    drained += 1
                    # link the entry on each pending operand's waiter list
                    pending = 0
                    for phys in instr.phys_sources:
                        reg = registers[phys]
                        if reg.ready_time == _INF:
                            reg.waiters.append(instr)
                            pending += 1
                    instr.pending_ops = pending
                    instr.wakeup_queue = queue
                    if pending == 0:
                        push_ready(instr)
                if len(batch) < space:
                    break                 # channel exhausted: skip the re-probe
            if drained:
                queue.dispatches += drained
                queue_cell[0] += drained

        return drain_input

    # ----------------------------------------------------------------- issue
    def _make_issue_ready(self):
        """Build the per-unit wakeup/select + issue closure.

        The pass walks only the queue's age-ordered ready list (entries
        whose producers have all written back), pricing cross-domain
        visibility lazily with a per-entry ``wakeup_after`` cache, and
        starts visible entries on free functional units as it finds them,
        oldest first, without materialising an intermediate ready list.
        All stable collaborators are pre-bound as closure variables.
        """
        unit = self
        issue_queue = self.issue_queue
        registers = self.regfile._registers
        fwd_cache = issue_queue._fwd_cache
        forwarding_latency = self.forwarding_latency
        functional_units = self.functional_units
        busy = functional_units._busy_until
        num_units = len(busy)
        latency_by_op = self._latency_by_op
        busy_by_op = self._busy_by_op
        memory = self.memory
        clock = self._clock
        domain_name = issue_queue.domain_name
        issue_width = self.issue_width
        dcache_cell = self._dcache_cell
        alu_cell = self._alu_cell
        queue_cell = self._queue_cell

        def issue_ready(now: float) -> None:
            ready_list = issue_queue._ready
            if not ready_list:
                return
            # Issue gate: after a complete pass that issued everything
            # visible, no remaining entry can become visible before
            # ``ready_gate`` -- only a new push resets it (push_ready).
            if now < issue_queue.ready_gate:
                return
            limit = 0
            for busy_until in busy:
                if busy_until <= now:
                    limit += 1
            if limit <= 0:
                return
            if limit > issue_width:
                limit = issue_width
            period = clock.period
            in_flight = unit._in_flight
            next_completion = unit._next_completion
            pass_complete = True
            min_future = _INF
            issued_instrs: List[DynamicInstruction] = []
            searched = 0
            issued = 0
            loads = 0
            for instr in ready_list:
                searched += 1
                wakeup_after = instr.wakeup_after
                if wakeup_after > now:
                    if wakeup_after < min_future:
                        min_future = wakeup_after
                    continue              # visibility time known, still ahead
                if wakeup_after < 0.0:
                    # first examination since the last producer's writeback:
                    # price every operand's cross-domain visibility
                    visible_at = 0.0
                    for phys in instr.phys_sources:
                        reg = registers[phys]
                        source_visible = reg.ready_time
                        producer_domain = reg.producer_domain
                        if producer_domain and producer_domain != domain_name:
                            extra = fwd_cache.get(producer_domain)
                            if extra is None:
                                extra = forwarding_latency(producer_domain,
                                                           domain_name)
                                fwd_cache[producer_domain] = extra
                            source_visible += extra
                        if source_visible > visible_at:
                            visible_at = source_visible
                    instr.wakeup_after = visible_at
                    if visible_at > now:
                        if visible_at < min_future:
                            min_future = visible_at
                        continue
                # ---------------- issue: claim the first free functional unit
                opclass = instr.opclass
                op_index = opclass.op_index
                latency_cycles = latency_by_op[op_index]
                if instr.is_load and memory is not None:
                    latency_cycles += memory.load_access(instr.trace.mem_address or 0)
                    loads += 1
                claimed = False
                for index in range(num_units):
                    if busy[index] <= now:
                        busy[index] = now + busy_by_op[op_index] * period
                        functional_units.operations += 1
                        claimed = True
                        break
                if not claimed:
                    # a visible entry is left behind: the gate must not hide it
                    functional_units.structural_stalls += 1
                    pass_complete = False
                    break
                issued_instrs.append(instr)
                instr.issued = True
                instr.issue_time = now
                completion_time = now + latency_cycles * period
                instr.fu_done = completion_time
                if completion_time < next_completion:
                    next_completion = completion_time
                in_flight.append(instr)
                issued += 1
                if issued >= limit:
                    pass_complete = False     # tail not examined this pass
                    break
            unit._next_completion = next_completion
            issue_queue.wakeup_searches += searched
            issue_queue.ready_gate = min_future if pass_complete else -1.0
            if loads:
                dcache_cell[0] += loads
            if issued:
                entries = issue_queue._entries
                for instr in issued_instrs:
                    ready_list.remove(instr)
                    entries.remove(instr)
                issue_queue.issues += issued
                unit.issued_ops += issued
                alu_cell[0] += issued
                queue_cell[0] += issued

        return issue_ready

    # ----------------------------------------------------------------- squash
    def squash_younger_than(self, branch_seq: int) -> int:
        """Remove wrong-path work after a misprediction; returns count removed."""
        squashed_queue = self.issue_queue.squash_younger_than(branch_seq)
        squashed_flight = [i for i in self._in_flight if i.seq > branch_seq]
        for instr in squashed_flight:
            instr.squashed = True
        self._in_flight = [i for i in self._in_flight if i.seq <= branch_seq]
        dropped_channel = self.input_channel.flush(
            lambda i: getattr(i, "seq", -1) > branch_seq)
        return len(squashed_queue) + len(squashed_flight) + dropped_channel
