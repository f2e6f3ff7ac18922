"""Physical register files and result-visibility tracking.

The processor of Table 3 has 72 physical integer registers and 72 physical
floating-point registers.  Besides allocation/freeing, the physical register
file is where cross-domain result forwarding latency is modelled: every
physical register remembers *when* and *in which clock domain* its value was
produced; a consumer in another domain observes readiness only after the
result has crossed the inter-domain FIFO (the paper's "latency in forwarding
results from one queue to another through FIFOs", Section 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

#: A value produced "at the beginning of time" (architectural state).
ALWAYS_READY = float("-inf")


@dataclass(slots=True)
class PhysicalRegister:
    """Allocation and readiness state of one physical register."""

    index: int
    is_fp: bool
    allocated: bool = False
    ready_time: float = ALWAYS_READY
    producer_domain: str = ""
    #: event-driven wakeup: issue-queue entries blocked on this register's
    #: value.  The producer's writeback walks the list, decrements each
    #: waiter's not-ready operand count and moves fully awake entries onto
    #: their queue's age-ordered ready list (see IssueQueue.push_ready).
    #: Squashed entries are skipped lazily; ``free()`` clears the list.
    waiters: List = field(default_factory=list)


class PhysicalRegisterFile:
    """Integer + FP physical register files with free lists.

    Physical register ids are globally unique: integer registers occupy
    ``[0, num_int)`` and FP registers ``[num_int, num_int + num_fp)``.
    """

    def __init__(self, num_int: int = 72, num_fp: int = 72,
                 num_arch_int: int = 32, num_arch_fp: int = 32) -> None:
        if num_int < num_arch_int or num_fp < num_arch_fp:
            raise ValueError("physical register files must cover the architectural state")
        self.num_int = num_int
        self.num_fp = num_fp
        self.num_arch_int = num_arch_int
        self.num_arch_fp = num_arch_fp
        self._registers: List[PhysicalRegister] = (
            [PhysicalRegister(i, is_fp=False) for i in range(num_int)]
            + [PhysicalRegister(num_int + i, is_fp=True) for i in range(num_fp)]
        )
        # The first num_arch registers of each file hold the initial
        # architectural state and start out allocated and ready.
        self._free_int: List[int] = []
        self._free_fp: List[int] = []
        # incremental allocated-register counts (occupancy is sampled every
        # commit cycle, so counting per sample would be O(registers) each time)
        self._int_in_use = 0
        self._fp_in_use = 0
        for reg in self._registers:
            in_initial_map = ((not reg.is_fp and reg.index < num_arch_int) or
                              (reg.is_fp and reg.index - num_int < num_arch_fp))
            if in_initial_map:
                reg.allocated = True
                if reg.is_fp:
                    self._fp_in_use += 1
                else:
                    self._int_in_use += 1
            else:
                (self._free_fp if reg.is_fp else self._free_int).append(reg.index)
        # statistics
        self.allocation_failures = 0

    # ----------------------------------------------------------- allocation
    def initial_mapping(self) -> Dict[int, int]:
        """Architectural -> physical map for the initial state."""
        mapping = {}
        for arch in range(self.num_arch_int):
            mapping[arch] = arch
        for arch in range(self.num_arch_fp):
            mapping[self.num_arch_int + arch] = self.num_int + arch
        return mapping

    def free(self, index: int) -> None:
        """Return a physical register to its free list."""
        reg = self._registers[index]
        if not reg.allocated:
            raise ValueError(f"double free of physical register {index}")
        reg.allocated = False
        reg.ready_time = ALWAYS_READY
        reg.producer_domain = ""
        # Any waiter still linked here is squashed wrong-path work (a live
        # consumer always commits before its source register is freed);
        # clearing keeps the next allocation's waiter list pristine.
        if reg.waiters:
            reg.waiters.clear()
        if reg.is_fp:
            self._fp_in_use -= 1
            self._free_fp.append(index)
        else:
            self._int_in_use -= 1
            self._free_int.append(index)
