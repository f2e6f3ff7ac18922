"""Commit stage (clock domain 2, pipeline stage 8: regfile write + commit).

Instructions retire in program order from the reorder buffer once their
execution has completed *and the completion is visible in the commit domain*.
In the GALS machine a completion produced in the integer, FP or memory domain
has to cross a FIFO back to domain 2 before the instruction can retire, so the
commit stage is a second place (after operand forwarding) where inter-domain
latency stretches the instruction slip (Figures 6-7).

The commit unit is also the central statistics collector: per committed
instruction it records the slip and its FIFO share, and per cycle it samples
the occupancy statistics the paper discusses (ROB, register allocation,
in-flight count).
"""

from __future__ import annotations


from ..memory.hierarchy import MemoryHierarchy
from .issue_queue import ForwardingLatency
from .regfile import ALWAYS_READY as _ALWAYS_READY
from .regfile import PhysicalRegisterFile
from .rename import RegisterAliasTable
from .rob import ReorderBuffer


class CommitUnit:
    """In-order retirement."""

    def __init__(
        self,
        rob: ReorderBuffer,
        rat: RegisterAliasTable,
        regfile: PhysicalRegisterFile,
        memory: MemoryHierarchy,
        domain_name: str,
        forwarding_latency: ForwardingLatency,
        activity,
        stats,
        commit_width: int = 4,
    ) -> None:
        self.rob = rob
        self.rat = rat
        self.regfile = regfile
        self.memory = memory
        self.domain_name = domain_name
        self.forwarding_latency = forwarding_latency
        self.activity = activity
        #: direct handles on the per-cycle counter cells (see DecodeRenameUnit)
        self._dcache_cell = activity.cell("dcache")
        self._regwrite_cell = activity.cell("regfile_write")
        #: exec-domain -> forwarding latency into the commit domain
        self._fwd_cache: dict = {}
        self.stats = stats
        self.commit_width = commit_width
        # statistics local to the stage
        self.committed = 0
        self.commit_stall_cycles = 0
        #: run-length-deferred occupancy sampling: consecutive cycles where
        #: the ROB length and both register-in-use counts are unchanged
        #: accumulate in ``_sample_run`` and are folded into the integer
        #: counters (ROB tracker + SimulationStats) on change or read
        self._sample_rob = -1
        self._sample_int = -1
        self._sample_fp = -1
        self._sample_run = 0

    # --------------------------------------------------------------- clocking
    def clock_edge(self, cycle: int, time: float) -> None:
        # Retirement is the per-instruction hot loop of the commit domain:
        # the can-commit visibility check, the ROB pop, the register free
        # (regfile.free's body) and the statistics update are all inlined
        # below rather than paid as per-instruction calls.
        """Retire up to ``commit_width`` finished instructions in program order and sample occupancies."""
        rob = self.rob
        entries = rob._entries
        if entries and not entries[0].completed:
            # Head not even executed yet: a full stall cycle, skip the
            # retirement loop's setup entirely (matches the first-iteration
            # can_commit=False break below).
            self.commit_stall_cycles += 1
        elif entries:
            committed_this_cycle = 0
            stores = 0
            width = self.commit_width
            domain_name = self.domain_name
            fwd_cache = self._fwd_cache
            stats = self.stats
            regfile = self.regfile
            registers = regfile._registers
            while committed_this_cycle < width and entries:
                instr = entries[0]
                if instr.completed:
                    visible_at = instr.complete_time
                    exec_domain = instr.exec_domain
                    if exec_domain and exec_domain != domain_name:
                        extra = fwd_cache.get(exec_domain)
                        if extra is None:
                            extra = self.forwarding_latency(exec_domain,
                                                            domain_name)
                            fwd_cache[exec_domain] = extra
                        visible_at += extra
                    else:
                        extra = 0.0
                    can_commit = visible_at <= time
                else:
                    can_commit = False
                if not can_commit:
                    if committed_this_cycle == 0:
                        self.commit_stall_cycles += 1
                    break
                entries.popleft()
                rob.retirements += 1
                instr.commit_time = time
                # Completion had to cross back into the commit domain; that
                # wait is FIFO residency from the instruction's point of view.
                if extra > 0:
                    instr.fifo_time += extra
                prev_phys = instr.prev_phys_dest
                if prev_phys is not None:
                    # inline regfile.free (recovery calls it)
                    reg = registers[prev_phys]
                    if not reg.allocated:
                        raise ValueError(
                            f"double free of physical register {prev_phys}")
                    reg.allocated = False
                    reg.ready_time = _ALWAYS_READY
                    reg.producer_domain = ""
                    # any waiter still linked is squashed wrong-path work (a
                    # live consumer commits before its source is freed)
                    if reg.waiters:
                        reg.waiters.clear()
                    if reg.is_fp:
                        regfile._fp_in_use -= 1
                        regfile._free_fp.append(prev_phys)
                    else:
                        regfile._int_in_use -= 1
                        regfile._free_int.append(prev_phys)
                if instr.is_branch and instr.rename_checkpoint is not None:
                    self.rat.release_checkpoint(instr.rename_checkpoint)
                if instr.is_store and instr.trace.mem_address is not None:
                    self.memory.store_access(instr.trace.mem_address)
                    stores += 1
                self.committed += 1
                if stats is not None:
                    # the committed-instruction statistics
                    committed = stats.committed + 1
                    stats.committed = committed
                    key = instr.opclass.class_key
                    by_class = stats.committed_by_class
                    by_class[key] = by_class.get(key, 0) + 1
                    fetch_time = instr.fetch_time
                    if fetch_time >= 0:
                        stats.slip_sum += time - fetch_time
                    stats.fifo_time_sum += instr.fifo_time
                    if instr.is_branch:
                        stats.branches_committed += 1
                    stats.last_commit_time = time
                    if (committed == stats.commit_target
                            and stats.on_target is not None):
                        stats.on_target()
                committed_this_cycle += 1
            if committed_this_cycle:
                if stores:
                    self._dcache_cell[0] += stores
                self._regwrite_cell[0] += committed_this_cycle
        # inline _sample's run-extension fast path (unchanged occupancies)
        regfile = self.regfile
        if (len(entries) == self._sample_rob
                and regfile._int_in_use == self._sample_int
                and regfile._fp_in_use == self._sample_fp):
            self._sample_run += 1
        else:
            self._sample(time)

    def _sample(self, now: float) -> None:
        rob = self.rob
        occupancy = len(rob._entries)
        regfile = self.regfile
        int_in_use = regfile._int_in_use
        fp_in_use = regfile._fp_in_use
        if (occupancy == self._sample_rob and int_in_use == self._sample_int
                and fp_in_use == self._sample_fp):
            self._sample_run += 1
            return
        if self._sample_run:
            self.flush_samples()
        rob.occupancy_samples += 1
        rob.occupancy_accum += occupancy
        stats = self.stats
        if stats is not None:
            stats.occupancy_samples += 1
            stats.rob_occupancy_sum += occupancy
            stats.int_regs_in_use_sum += int_in_use
            stats.fp_regs_in_use_sum += fp_in_use
        self._sample_rob = occupancy
        self._sample_int = int_in_use
        self._sample_fp = fp_in_use

    def flush_samples(self) -> None:
        """Fold the deferred ROB/register occupancy run into the counters."""
        run = self._sample_run
        if run:
            self._sample_run = 0
            rob = self.rob
            rob.occupancy_samples += run
            rob.occupancy_accum += self._sample_rob * run
            stats = self.stats
            if stats is not None:
                stats.occupancy_samples += run
                stats.rob_occupancy_sum += self._sample_rob * run
                stats.int_regs_in_use_sum += self._sample_int * run
                stats.fp_regs_in_use_sum += self._sample_fp * run
