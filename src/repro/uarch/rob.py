"""Reorder buffer.

Instructions are inserted at rename/dispatch in program order, marked complete
by the execution units, and retired in order by the commit stage (Table 2,
stage 8).  The ROB is also where mis-speculation recovery squashes younger
instructions.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from .instruction import DynamicInstruction


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
