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

from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple

from .._compat import SLOTS
from .instructions import InstructionClass


@dataclass(**SLOTS)
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


class InstructionSource:
    """Iterator-style wrapper a fetch unit pulls correct-path instructions from.

    Implementations must be restartable from a pc only in the trivial sense a
    trace allows: the fetch unit never needs random access because wrong-path
    fetch uses synthetically generated instructions and recovery resumes the
    trace exactly where it left off.
    """

    def __init__(self, name: str = "trace") -> None:
        self.name = name

    def __iter__(self) -> Iterator[TraceInstruction]:  # pragma: no cover
        raise NotImplementedError

    def peek(self) -> Optional[TraceInstruction]:  # pragma: no cover
        """The next instruction without consuming it (None when exhausted)."""
        raise NotImplementedError

    def next(self) -> Optional[TraceInstruction]:  # pragma: no cover
        """Consume and return the next instruction (None when exhausted)."""
        raise NotImplementedError

    def exhausted(self) -> bool:  # pragma: no cover
        """True once every instruction has been consumed."""
        raise NotImplementedError


class ListTraceSource(InstructionSource):
    """An :class:`InstructionSource` backed by an in-memory list."""

    def __init__(self, instructions, name: str = "trace") -> None:
        super().__init__(name)
        self._instructions = list(instructions)
        self._position = 0
        #: cache-warming replay plans derived from the instructions, keyed by
        #: cache line size; shared between copies of a memoized trace (see
        #: :func:`repro.workloads.registry.build_workload`)
        self._warm_plans: dict = {}

    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self) -> Iterator[TraceInstruction]:
        return iter(self._instructions)

    def peek(self) -> Optional[TraceInstruction]:
        """The next instruction without consuming it (None when exhausted)."""
        if self._position >= len(self._instructions):
            return None
        return self._instructions[self._position]

    def next(self) -> Optional[TraceInstruction]:
        """Consume and return the next instruction (None when exhausted)."""
        position = self._position
        instructions = self._instructions
        if position >= len(instructions):
            return None
        self._position = position + 1
        return instructions[position]

    def exhausted(self) -> bool:
        """True once every instruction has been consumed."""
        return self._position >= len(self._instructions)

    def reset(self) -> None:
        """Rewind to the beginning (used when re-running the same workload)."""
        self._position = 0

    @property
    def remaining(self) -> int:
        """Number of instructions not yet consumed."""
        return len(self._instructions) - self._position
