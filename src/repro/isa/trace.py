"""Dynamic instruction trace format.

The processor timing models are *trace driven at the front end*: a workload
(either the functional executor running a real kernel, or the synthetic
profile-driven generator) supplies a stream of :class:`TraceInstruction`
records describing the correct execution path -- instruction class, register
dependences, memory address and branch outcome.  The pipeline model then adds
everything timing related: fetch/cache behaviour, wrong-path instructions
after mispredictions, queue occupancies, and so on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from .instructions import InstructionClass


@dataclass(slots=True)
class TraceInstruction:
    """One correct-path dynamic instruction."""

    index: int
    pc: int
    opclass: InstructionClass
    dest: Optional[int] = None
    sources: Tuple[int, ...] = ()
    mem_address: Optional[int] = None
    mem_size: int = 8
    is_branch: bool = False
    taken: bool = False
    target_pc: Optional[int] = None

    @property
    def is_load(self) -> bool:
        """True for memory loads."""
        return self.opclass is InstructionClass.LOAD

    @property
    def is_store(self) -> bool:
        """True for memory stores."""
        return self.opclass is InstructionClass.STORE

    @property
    def is_control(self) -> bool:
        """True for any control-flow instruction."""
        return self.opclass.is_control

    @property
    def is_fp(self) -> bool:
        """True for floating-point instructions."""
        return self.opclass.is_fp

    def next_pc(self) -> int:
        """Architectural next pc (after this instruction commits)."""
        if self.is_control and self.taken and self.target_pc is not None:
            return self.target_pc
        return self.pc + 4


class ListTraceSource:
    """The correct-path trace a fetch unit reads, held in memory.

    The records are held as a tuple: a tuple passed in is kept as it is (so
    memoized copies of one trace share it), anything else is copied.  The
    fetch unit reads ``_instructions`` at the cursor ``_position`` directly;
    wrong-path fetch uses synthesised instructions and recovery resumes the
    trace exactly where it left off, so the cursor only moves forward.
    """

    def __init__(self, instructions, name: str = "trace") -> None:
        self.name = name
        self._instructions = tuple(instructions)
        self._position = 0
        #: cache-warming replay plans derived from the instructions, keyed by
        #: cache line size; shared between copies of a memoized trace (see
        #: :func:`repro.workloads.registry.build_workload`)
        self._warm_plans: dict = {}

    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self) -> Iterator[TraceInstruction]:
        return iter(self._instructions)
