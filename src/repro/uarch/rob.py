"""Reorder buffer.

Instructions are inserted at rename/dispatch in program order, marked complete
by the execution units, and retired in order by the commit stage (Table 2,
stage 8).  The ROB is also where mis-speculation recovery squashes younger
instructions.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, List, Optional

from .instruction import DynamicInstruction


class ReorderBufferFullError(RuntimeError):
    """Raised when allocating into a full ROB (callers should check first)."""


class ReorderBuffer:
    """In-order retirement window."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity <= 0:
            raise ValueError("ROB capacity must be positive")
        self.capacity = capacity
        self._entries: Deque[DynamicInstruction] = deque()
        # statistics
        self.allocations = 0
        self.retirements = 0
        self.squashes = 0
        self.occupancy_accum = 0
        self.occupancy_samples = 0

    # ----------------------------------------------------------------- state
    @property
    def occupancy(self) -> int:
        """Number of in-flight instructions."""
        return len(self._entries)

    @property
    def is_full(self) -> bool:
        """True when no entry is free."""
        return len(self._entries) >= self.capacity

    @property
    def mean_occupancy(self) -> float:
        """Average occupancy over the sampled cycles."""
        if self.occupancy_samples == 0:
            return 0.0
        return self.occupancy_accum / self.occupancy_samples

    def __iter__(self):
        return iter(self._entries)

    # ------------------------------------------------------------ operations
    def allocate(self, instr: DynamicInstruction) -> int:
        """Append ``instr``; returns its ROB index (monotonic allocation id)."""
        if self.is_full:
            raise ReorderBufferFullError("reorder buffer is full")
        self._entries.append(instr)
        instr.rob_index = self.allocations
        self.allocations += 1
        return instr.rob_index

    def head(self) -> Optional[DynamicInstruction]:
        """Oldest un-retired instruction, or None."""
        return self._entries[0] if self._entries else None

    def retire_head(self) -> DynamicInstruction:
        """Remove and return the head (caller has checked it can commit)."""
        if not self._entries:
            raise LookupError("retire from an empty ROB")
        self.retirements += 1
        return self._entries.popleft()

    def squash_younger_than(self, branch_seq: int) -> List[DynamicInstruction]:
        """Remove every instruction younger than ``branch_seq``.

        Returns the squashed instructions (newest last) so the caller can free
        their physical registers and update statistics.
        """
        kept: Deque[DynamicInstruction] = deque()
        squashed: List[DynamicInstruction] = []
        for instr in self._entries:
            if instr.seq > branch_seq:
                instr.squashed = True
                squashed.append(instr)
            else:
                kept.append(instr)
        self._entries = kept
        self.squashes += len(squashed)
        return squashed

    def in_flight(self) -> Iterable[DynamicInstruction]:
        """All instructions currently in the window (oldest first)."""
        return tuple(self._entries)
