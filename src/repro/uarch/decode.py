"""Decode, rename and dispatch (clock domain 2, pipeline stages 2-4).

Instructions arriving from the fetch channel are decoded, spend
``decode_stages`` cycles in the decode/rename pipeline (Table 2 lists decode,
rename/regfile-read and dispatch as separate stages), are renamed in program
order, allocated a ROB entry, and dispatched into the issue channel of the
cluster that will execute them (integer, floating point, or memory).

Instructions from a stale epoch -- wrong-path instructions that the fetch unit
kept producing while the redirect message was still in flight -- are dropped
here; they have already consumed fetch bandwidth and FIFO slots, which is
exactly the wasted speculative work the paper attributes to the GALS design.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from ..isa.instructions import InstructionClass
from ..sim.channel import Channel
from ..sim.clock import Clock
from .instruction import DynamicInstruction
from .rename import RegisterAliasTable
from .regfile import PhysicalRegisterFile
from .rob import ReorderBuffer


#: opclass -> execution cluster; derived from the authoritative ``cluster``
#: attribute stamped on the enum members (repro.isa.instructions)
_CLUSTER_CACHE: Dict[InstructionClass, str] = {
    opclass: opclass.cluster for opclass in InstructionClass
}


def cluster_for(opclass: InstructionClass) -> str:
    """Which execution cluster ('int', 'fp', 'mem') runs this class."""
    return opclass.cluster


class DecodeRenameUnit:
    """Decode + rename + dispatch stage group."""

    def __init__(
        self,
        input_channel: Channel,
        issue_channels: Dict[str, Channel],
        rob: ReorderBuffer,
        rat: RegisterAliasTable,
        regfile: PhysicalRegisterFile,
        clock: Clock,
        current_epoch: Callable[[], int],
        activity,
        decode_width: int = 4,
        dispatch_width: int = 4,
        decode_stages: int = 2,
        cluster_domains: Optional[Dict[str, str]] = None,
        cluster_instances: Optional[Dict[str, Tuple[str, ...]]] = None,
    ) -> None:
        self.input_channel = input_channel
        self._input_is_fifo = input_channel.counts_as_fifo
        self.issue_channels = issue_channels
        #: cluster instance ('int'/'fp'/'mem', plus 'int2'/... on replicated
        #: topologies) -> clock-domain name executing it
        self.cluster_domains = cluster_domains or {"int": "int", "fp": "fp",
                                                   "mem": "mem"}
        #: cluster kind -> the instances that can execute it, in dispatch
        #: preference order (the primary instance first).  The default is the
        #: identity map of the paper's single-cluster machine; replicated
        #: topologies list the replicas after the primary.
        self.cluster_instances: Dict[str, Tuple[str, ...]] = (
            cluster_instances
            or {kind: (kind,) for kind in ("int", "fp", "mem")})
        #: True when any kind has more than one instance: enables the
        #: replica-routing dispatch path (the single-instance path is the
        #: exact historical behaviour)
        self._replicated = any(len(instances) > 1
                               for instances in self.cluster_instances.values())
        #: per-kind round-robin cursor for non-control instructions on
        #: replicated topologies (advanced only on successful dispatch, so a
        #: stalled instruction retries the same instance)
        self._round_robin: Dict[str, int] = {
            kind: 0 for kind in self.cluster_instances}
        self.rob = rob
        self.rat = rat
        self.regfile = regfile
        #: the decode domain's clock (see ExecutionUnit._clock)
        self._clock = clock
        self.current_epoch = current_epoch
        self.activity = activity
        #: direct handles on the per-cycle activity counter cells:
        #: decode/dispatch record a couple of accesses per instruction by
        #: incrementing the cells inline
        self._decode_cell = activity.cell("decode")
        self._rename_cell = activity.cell("rename")
        self._regread_cell = activity.cell("regfile_read")
        self.decode_width = decode_width
        self.dispatch_width = dispatch_width
        self.decode_stages = decode_stages
        #: instructions inside the decode/rename pipeline, oldest first; each
        #: carries its pipe-exit time in ``instr.pipe_ready``.  Bounded like
        #: a real pipe: one decode group per decode stage.
        self.pipeline_capacity = decode_stages * decode_width
        self._pipeline: Deque[DynamicInstruction] = deque()
        # statistics
        self.decoded = 0
        self.dispatched = 0
        self.stale_dropped = 0
        self.rename_stalls = 0
        self.rob_stalls = 0
        self.channel_stalls = 0
        #: run-length-deferred fetch-queue occupancy sampling (see FetchUnit)
        self._sample_len = -1
        self._sample_run = 0

    # --------------------------------------------------------------- clocking
    def clock_edge(self, cycle: int, time: float) -> None:
        # Each helper no-ops on an empty pipeline / input, so idle edges cost
        # two attribute checks plus the occupancy sample.
        """One decode-domain cycle: advance the decode pipeline, rename, and dispatch to the clusters."""
        if self._pipeline:
            self._dispatch(time)
        channel = self.input_channel
        entries = channel._entries
        # head-visibility precheck: skip the bulk drain while the FIFO head
        # is still synchronizing into this domain
        if entries and (not self._input_is_fifo or entries[0][2] <= time):
            self._decode(time)
        entries_len = len(channel._entries)
        if entries_len == self._sample_len:
            self._sample_run += 1
        else:
            run = self._sample_run
            if run:
                self._sample_run = 0
                channel.occupancy_samples += run
                channel.occupancy_accum += self._sample_len * run
            channel.occupancy_samples += 1
            channel.occupancy_accum += entries_len
            self._sample_len = entries_len

    def flush_samples(self) -> None:
        """Fold the deferred fetch-queue occupancy run into the counters."""
        run = self._sample_run
        if run:
            self._sample_run = 0
            channel = self.input_channel
            channel.occupancy_samples += run
            channel.occupancy_accum += self._sample_len * run

    # ----------------------------------------------------------------- decode
    def _decode(self, now: float) -> None:
        # Commit-domain intake: drain the fetch channel in bulk.  Each batch
        # is bounded by both the decode width and the pipe's free slots;
        # stale (squashed / old-epoch) items consume neither, so the loop
        # re-probes until a bound is hit or nothing more is visible.
        taken = 0
        channel = self.input_channel
        pop_bulk = channel.pop_bulk
        pipeline = self._pipeline
        capacity = self.pipeline_capacity
        is_fifo = channel.counts_as_fifo
        width = self.decode_width
        # epoch and clock period cannot change while decode drains its input
        # (recoveries happen on execution-domain edges), so hoist them
        epoch = self.current_epoch()
        pipe_delay = self.decode_stages * self._clock.period
        append = pipeline.append
        while True:
            limit = width - taken
            space = capacity - len(pipeline)
            if space < limit:
                limit = space
            if limit <= 0:
                break
            batch = pop_bulk(now, limit)
            if not batch:
                break
            for instr, wait in batch:
                if is_fifo and wait > 0:
                    instr.fifo_time += wait
                if instr.squashed or instr.epoch < epoch:
                    self.stale_dropped += 1
                    continue
                instr.decode_time = now
                instr.pipe_ready = now + pipe_delay
                append(instr)
                self.decoded += 1
                taken += 1
            if len(batch) < limit:
                break                     # channel exhausted: skip the re-probe
        if taken:
            self._decode_cell[0] += taken

    # --------------------------------------------------------------- dispatch
    def _dispatch(self, now: float) -> None:
        dispatched = 0
        current_epoch = self.current_epoch()
        pipeline = self._pipeline
        rob = self.rob
        rob_entries = rob._entries
        rob_capacity = rob.capacity
        rat = self.rat
        rename = rat.rename
        issue_channels = self.issue_channels
        cluster_domains = self.cluster_domains
        width = self.dispatch_width
        regfile_reads = 0
        #: lazily computed per-cluster grant counts (producer-side space is
        #: stable within the cycle minus this loop's own pushes)
        free_slots: Dict[str, int] = {}
        while dispatched < width and pipeline:
            instr = pipeline[0]
            if instr.pipe_ready > now:
                break
            if instr.squashed or instr.epoch < current_epoch:
                pipeline.popleft()
                self.stale_dropped += 1
                continue
            cluster = instr.opclass.cluster
            if self._replicated:
                # Replica routing: control instructions always run on the
                # primary instance (the only cluster with a branch unit and
                # redirect link); everything else round-robins across the
                # kind's instances, deterministically.
                instances = self.cluster_instances[cluster]
                if len(instances) == 1 or instr.opclass.is_control:
                    cluster = instances[0]
                else:
                    cluster = instances[self._round_robin[cluster]
                                        % len(instances)]
            channel = issue_channels[cluster]
            if len(rob_entries) >= rob_capacity:
                self.rob_stalls += 1
                break
            free = free_slots.get(cluster)
            if free is None:
                free = channel.free_slots(now)
            if free <= 0:
                channel.record_full_stall()
                self.channel_stalls += 1
                break
            if not rename(instr):
                self.rename_stalls += 1
                break
            if instr.is_branch:
                instr.rename_checkpoint = rat.take_checkpoint(instr.seq)
            # ROB allocation (fullness was checked above)
            rob_entries.append(instr)
            instr.rob_index = rob.allocations
            rob.allocations += 1
            instr.rename_time = now
            instr.dispatch_time = now
            instr.exec_domain = cluster_domains[cluster]
            channel.push_granted(instr, now)
            free_slots[cluster] = free - 1
            if self._replicated:
                self._round_robin[instr.opclass.cluster] += 1
            pipeline.popleft()
            dispatched += 1
            self.dispatched += 1
            num_reads = len(instr.phys_sources)
            regfile_reads += num_reads if num_reads > 1 else 1
        if dispatched:
            self._rename_cell[0] += dispatched
            self._regread_cell[0] += regfile_reads

    # ----------------------------------------------------------------- squash
    def squash_younger_than(self, branch_seq: int) -> int:
        """Drop wrong-path instructions from the decode pipeline and input."""
        before = len(self._pipeline)
        self._pipeline = deque(i for i in self._pipeline
                               if i.seq <= branch_seq)
        dropped_pipeline = before - len(self._pipeline)
        dropped_channel = self.input_channel.flush(
            lambda i: getattr(i, "seq", -1) > branch_seq)
        return dropped_pipeline + dropped_channel
