"""Static program representation.

A :class:`Program` is an ordered list of static instructions plus a label
table.  Programs are produced either by the assembler
(:mod:`repro.isa.assembler`) from hand-written kernel sources, or
programmatically by the workload kernels.  The functional executor
(:mod:`repro.isa.executor`) runs a program to produce the dynamic trace the
timing models consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List

from .instructions import Instruction, Opcode

#: Byte size of one instruction; pcs advance by this amount.
INSTRUCTION_SIZE = 4

#: Base address programs are loaded at (gives pcs a realistic magnitude so
#: cache indexing behaves like a real text segment).
TEXT_BASE = 0x0040_0000


@dataclass
class Program:
    """A static program: instructions, labels, and an entry point."""

    instructions: List[Instruction] = field(default_factory=list)
    labels: Dict[str, int] = field(default_factory=dict)
    name: str = "program"
    text_base: int = TEXT_BASE

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    # ------------------------------------------------------------- addresses
    def pc_of_index(self, index: int) -> int:
        """Program counter of the instruction at list index ``index``."""
        return self.text_base + index * INSTRUCTION_SIZE

    def index_of_pc(self, pc: int) -> int:
        """List index of the instruction at ``pc``."""
        offset = pc - self.text_base
        if offset < 0 or offset % INSTRUCTION_SIZE != 0:
            raise ValueError(f"pc {pc:#x} is not aligned inside the program")
        index = offset // INSTRUCTION_SIZE
        if index >= len(self.instructions):
            raise ValueError(f"pc {pc:#x} is outside the program")
        return index

    def pc_of_label(self, label: str) -> int:
        """Program counter a label refers to."""
        if label not in self.labels:
            raise KeyError(f"unknown label {label!r}")
        return self.pc_of_index(self.labels[label])

    def instruction_at(self, pc: int) -> Instruction:
        """Static instruction at ``pc``."""
        return self.instructions[self.index_of_pc(pc)]

    # ------------------------------------------------------------ construction
    def add_label(self, label: str) -> None:
        """Attach ``label`` to the next instruction to be appended."""
        if label in self.labels:
            raise ValueError(f"duplicate label {label!r}")
        self.labels[label] = len(self.instructions)

    def append(self, instruction: Instruction) -> None:
        """Append one instruction to the text segment."""
        self.instructions.append(instruction)

    def extend(self, instructions) -> None:
        """Append a sequence of instructions to the text segment."""
        self.instructions.extend(instructions)

    # ---------------------------------------------------------------- queries
    @property
    def entry_pc(self) -> int:
        """Execution entry point: the ``main`` label if defined, else the text base."""
        return self.pc_of_label("main") if "main" in self.labels else self.text_base

    def static_mix(self) -> Dict[str, int]:
        """Histogram of static instruction classes (for reports and tests)."""
        mix: Dict[str, int] = {}
        for instr in self.instructions:
            key = instr.opclass.value
            mix[key] = mix.get(key, 0) + 1
        return mix

    def listing(self) -> str:
        """Human-readable assembly listing with pcs and labels."""
        index_to_labels: Dict[int, List[str]] = {}
        for label, index in self.labels.items():
            index_to_labels.setdefault(index, []).append(label)
        lines = []
        for index, instr in enumerate(self.instructions):
            for label in index_to_labels.get(index, []):
                lines.append(f"{label}:")
            lines.append(f"    {self.pc_of_index(index):#010x}  {instr}")
        return "\n".join(lines)

    def validate(self) -> None:
        """Check that every control-flow target label exists."""
        for instr in self.instructions:
            if instr.target_label is not None and instr.target_label not in self.labels:
                raise ValueError(
                    f"instruction {instr} references unknown label "
                    f"{instr.target_label!r}")
        if self.instructions and self.instructions[-1].opcode not in (
                Opcode.HALT, Opcode.J, Opcode.JR):
            # Falling off the end is almost always a kernel-authoring bug.
            raise ValueError(
                f"program {self.name!r} does not end in halt or an "
                f"unconditional jump")
