"""Register alias table (rename logic) with branch checkpoints.

Rename maps architectural registers onto the 72+72 physical registers
(Table 3).  Every conditional branch takes a checkpoint of the map so that a
misprediction can restore the front-end state instantly; the *timing* cost of
recovery is modelled elsewhere (the redirect has to reach the fetch domain,
which in the GALS machine means crossing a FIFO).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..isa.registers import FP_BASE as _FP_BASE
from ..isa.registers import ZERO_REG
from .instruction import DynamicInstruction
from .regfile import PhysicalRegisterFile

#: ready_time of an allocated-but-unproduced register (see regfile)
_PENDING = float("inf")


@dataclass
class RenameCheckpoint:
    """Snapshot of the alias table taken at a branch.

    ``mapping`` is the flat architectural->physical table: index = the
    architectural register id (the namespace is contiguous, see
    :mod:`repro.isa.registers`).
    """

    branch_seq: int
    mapping: List[int]


class RenameError(RuntimeError):
    """Raised on structural misuse of the rename logic."""


class RegisterAliasTable:
    """Architectural -> physical register map with checkpoint/restore."""

    def __init__(self, regfile: PhysicalRegisterFile) -> None:
        self.regfile = regfile
        # flat list indexed by architectural id: the namespace is contiguous
        # (0..63), so the rename/checkpoint hot paths use C-level list
        # indexing and copying instead of dict lookups
        initial = regfile.initial_mapping()
        self._map: List[int] = [initial[arch] for arch in range(len(initial))]
        self._checkpoints: List[RenameCheckpoint] = []
        # statistics
        self.renames = 0
        self.checkpoints_taken = 0
        self.restores = 0

    # ---------------------------------------------------------------- lookup
    def lookup(self, arch_reg: int) -> int:
        """Current physical register holding ``arch_reg``."""
        if 0 <= arch_reg < len(self._map):
            return self._map[arch_reg]
        raise RenameError(f"architectural register {arch_reg} has no mapping")

    # ---------------------------------------------------------------- rename
    def rename(self, instr: DynamicInstruction) -> bool:
        """Rename ``instr`` in place.

        Returns False (leaving no side effects) when no physical register is
        available, in which case the caller must stall dispatch.  Runs once
        per dispatched instruction, so the allocation fast path of
        :class:`~repro.uarch.regfile.PhysicalRegisterFile` is inlined
        (``allocate`` stays the reference implementation).
        """
        # Source operands read the current map (direct access: the map always
        # covers the architectural registers, see initial_mapping()).
        # Specialised for the 0/1/2-source shapes of the ISA -- this runs
        # once per dispatched instruction.
        current_map = self._map
        trace = instr.trace
        sources = trace.sources
        num_sources = len(sources)
        if num_sources == 2:
            s0, s1 = sources
            if s0 == ZERO_REG:
                phys_sources = (() if s1 == ZERO_REG
                                else (current_map[s1],))
            elif s1 == ZERO_REG:
                phys_sources = (current_map[s0],)
            else:
                phys_sources = (current_map[s0], current_map[s1])
        elif num_sources == 1:
            s0 = sources[0]
            phys_sources = () if s0 == ZERO_REG else (current_map[s0],)
        elif num_sources == 0:
            phys_sources = ()
        else:
            phys_sources = tuple(current_map[src] for src in sources
                                 if src != ZERO_REG)
        new_phys: Optional[int] = None
        prev_phys: Optional[int] = None
        dest = trace.dest
        if dest is not None and dest != ZERO_REG:
            regfile = self.regfile
            for_fp = dest >= _FP_BASE    # inline is_fp_reg (hot path)
            free_list = regfile._free_fp if for_fp else regfile._free_int
            if not free_list:
                regfile.allocation_failures += 1
                return False
            new_phys = free_list.pop()
            reg = regfile._registers[new_phys]
            reg.allocated = True
            reg.ready_time = _PENDING
            reg.producer_domain = ""
            # reg.waiters is empty here: every free path (commit's inlined
            # free, regfile.free in recovery) clears it, so the event-wakeup
            # waiter list never carries links across an allocation
            if for_fp:
                regfile._fp_in_use += 1
            else:
                regfile._int_in_use += 1
            prev_phys = current_map[dest]
            current_map[dest] = new_phys
        instr.phys_sources = phys_sources
        instr.phys_dest = new_phys
        instr.prev_phys_dest = prev_phys
        self.renames += 1
        return True

    # ------------------------------------------------------------ checkpoints
    def take_checkpoint(self, branch_seq: int) -> RenameCheckpoint:
        """Snapshot the map for a conditional branch."""
        checkpoint = RenameCheckpoint(branch_seq=branch_seq,
                                      mapping=self._map.copy())
        self._checkpoints.append(checkpoint)
        self.checkpoints_taken += 1
        return checkpoint

    def release_checkpoint(self, checkpoint: RenameCheckpoint) -> None:
        """Discard a checkpoint once its branch has committed."""
        try:
            self._checkpoints.remove(checkpoint)
        except ValueError:
            pass  # already released by an earlier recovery

    def restore(self, checkpoint: RenameCheckpoint) -> None:
        """Roll the map back to ``checkpoint`` (misprediction recovery).

        All checkpoints younger than the restored one become invalid and are
        discarded.
        """
        if checkpoint not in self._checkpoints:
            raise RenameError("cannot restore an unknown or stale checkpoint")
        self._map = checkpoint.mapping.copy()
        # Drop this checkpoint and every younger one.
        position = self._checkpoints.index(checkpoint)
        self._checkpoints = self._checkpoints[:position]
        self.restores += 1

    @property
    def live_checkpoints(self) -> int:
        """Number of outstanding rename checkpoints (unresolved branches)."""
        return len(self._checkpoints)
