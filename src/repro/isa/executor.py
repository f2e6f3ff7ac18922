"""Functional executor: runs a program and emits the dynamic trace.

This plays the role SimpleScalar's functional simulator plays in the paper's
infrastructure: it executes instructions architecturally (registers, memory,
control flow) and hands the resulting dynamic instruction stream to the
timing models.  No timing is modelled here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .instructions import Opcode
from .program import INSTRUCTION_SIZE, Program
from .registers import NUM_ARCH_REGS, ZERO_REG, is_fp_reg
from .trace import ListTraceSource, TraceInstruction

#: Default base address of the data segment the executor exposes.
DATA_BASE = 0x1000_0000


class ExecutionLimitExceeded(RuntimeError):
    """Raised when a program runs longer than the configured instruction limit."""


@dataclass
class MachineState:
    """Architectural state of the functional machine."""

    registers: List[float] = field(default_factory=lambda: [0] * NUM_ARCH_REGS)
    memory: Dict[int, float] = field(default_factory=dict)

    def read_reg(self, reg: int):
        """Architectural register read (the zero register reads as 0)."""
        if reg == ZERO_REG:
            return 0
        return self.registers[reg]

    def write_reg(self, reg: int, value) -> None:
        """Architectural register write (writes to the zero register are dropped; integer registers truncate)."""
        if reg == ZERO_REG:
            return
        if not is_fp_reg(reg):
            value = int(value)
        self.registers[reg] = value

    def read_mem(self, address: int):
        """Data-memory read (uninitialised addresses read as 0)."""
        return self.memory.get(address, 0)

    def write_mem(self, address: int, value) -> None:
        """Data-memory write at an absolute address."""
        self.memory[address] = value


class FunctionalExecutor:
    """Executes a :class:`Program` and records the dynamic trace."""

    def __init__(self, program: Program, max_instructions: int = 1_000_000) -> None:
        self.program = program
        self.max_instructions = max_instructions
        self.state = MachineState()
        self.trace: List[TraceInstruction] = []
        self._halted = False

    # -------------------------------------------------------------- public
    @property
    def halted(self) -> bool:
        """True once a HALT instruction has executed."""
        return self._halted

    def preload_memory(self, values: Dict[int, float]) -> None:
        """Initialise data memory before running (addresses are absolute)."""
        self.state.memory.update(values)

    def set_register(self, reg: int, value) -> None:
        """Initialise one architectural register before running."""
        self.state.write_reg(reg, value)

    def run(self, entry_label: Optional[str] = None,
            stop_after: Optional[int] = None) -> ListTraceSource:
        """Run to completion and return the trace as an instruction source.

        ``stop_after`` ends the run early, after that many instructions: the
        trace is then the program's first ``stop_after`` instructions.
        """
        pc = (self.program.pc_of_label(entry_label)
              if entry_label else self.program.entry_pc)
        limit = self.max_instructions
        if stop_after is not None and stop_after < limit:
            limit = stop_after
        while not self._halted:
            if len(self.trace) >= limit:
                if limit == stop_after:
                    break
                raise ExecutionLimitExceeded(
                    f"program {self.program.name!r} exceeded "
                    f"{self.max_instructions} instructions")
            pc = self._step(pc)
        return ListTraceSource(self.trace, name=self.program.name)

    # ------------------------------------------------------------- internals
    def _step(self, pc: int) -> int:
        instr = self.program.instruction_at(pc)
        state = self.state
        next_pc = pc + INSTRUCTION_SIZE
        taken = False
        target_pc: Optional[int] = None
        mem_address: Optional[int] = None

        op = instr.opcode
        if op in (Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.AND,
                  Opcode.OR, Opcode.XOR, Opcode.SLL, Opcode.SRL, Opcode.SLT,
                  Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV):
            a = state.read_reg(instr.sources[0])
            b = state.read_reg(instr.sources[1])
            state.write_reg(instr.dest, self._alu(op, a, b))
        elif op in (Opcode.MOV, Opcode.FMOV):
            state.write_reg(instr.dest, state.read_reg(instr.sources[0]))
        elif op is Opcode.CVTIF:
            state.write_reg(instr.dest, float(state.read_reg(instr.sources[0])))
        elif op is Opcode.CVTFI:
            state.write_reg(instr.dest, int(state.read_reg(instr.sources[0])))
        elif op is Opcode.LI:
            state.write_reg(instr.dest, instr.immediate)
        elif op is Opcode.ADDI:
            state.write_reg(instr.dest,
                            state.read_reg(instr.sources[0]) + instr.immediate)
        elif op in (Opcode.LW, Opcode.FLW):
            mem_address = int(state.read_reg(instr.sources[0])) + instr.immediate
            state.write_reg(instr.dest, state.read_mem(mem_address))
        elif op in (Opcode.SW, Opcode.FSW):
            mem_address = int(state.read_reg(instr.sources[1])) + instr.immediate
            state.write_mem(mem_address, state.read_reg(instr.sources[0]))
        elif op in (Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE):
            a = state.read_reg(instr.sources[0])
            b = state.read_reg(instr.sources[1])
            taken = self._branch_taken(op, a, b)
            target_pc = self.program.pc_of_label(instr.target_label)
            if taken:
                next_pc = target_pc
        elif op in (Opcode.J, Opcode.JAL):
            taken = True
            target_pc = self.program.pc_of_label(instr.target_label)
            if op is Opcode.JAL:
                state.write_reg(31, next_pc)  # link register convention: r31
            next_pc = target_pc
        elif op is Opcode.JR:
            taken = True
            target_pc = int(state.read_reg(instr.sources[0]))
            next_pc = target_pc
        elif op is Opcode.HALT:
            self._halted = True
        elif op is Opcode.NOP:
            pass
        else:  # pragma: no cover - all opcodes handled above
            raise NotImplementedError(f"opcode {op} not implemented")

        self.trace.append(TraceInstruction(
            index=len(self.trace),
            pc=pc,
            opclass=instr.opclass,
            dest=instr.dest,
            sources=instr.sources,
            mem_address=mem_address,
            is_branch=instr.is_branch,
            taken=taken,
            target_pc=target_pc,
        ))
        return next_pc

    @staticmethod
    def _alu(op: Opcode, a, b):
        if op in (Opcode.ADD, Opcode.FADD):
            return a + b
        if op in (Opcode.SUB, Opcode.FSUB):
            return a - b
        if op in (Opcode.MUL, Opcode.FMUL):
            return a * b
        if op is Opcode.DIV:
            return a // b if b != 0 else 0
        if op is Opcode.FDIV:
            return a / b if b != 0 else 0.0
        if op is Opcode.AND:
            return int(a) & int(b)
        if op is Opcode.OR:
            return int(a) | int(b)
        if op is Opcode.XOR:
            return int(a) ^ int(b)
        if op is Opcode.SLL:
            return int(a) << (int(b) & 31)
        if op is Opcode.SRL:
            return int(a) >> (int(b) & 31)
        if op is Opcode.SLT:
            return 1 if a < b else 0
        raise NotImplementedError(op)  # pragma: no cover

    @staticmethod
    def _branch_taken(op: Opcode, a, b) -> bool:
        if op is Opcode.BEQ:
            return a == b
        if op is Opcode.BNE:
            return a != b
        if op is Opcode.BLT:
            return a < b
        if op is Opcode.BGE:
            return a >= b
        raise NotImplementedError(op)  # pragma: no cover


def execute_program(program: Program,
                    max_instructions: int = 1_000_000,
                    initial_memory: Optional[Dict[int, float]] = None,
                    initial_registers: Optional[Dict[int, float]] = None,
                    stop_after: Optional[int] = None,
                    ) -> ListTraceSource:
    """Convenience wrapper: run ``program`` and return its dynamic trace
    (its first ``stop_after`` instructions, when given)."""
    executor = FunctionalExecutor(program, max_instructions=max_instructions)
    if initial_memory:
        executor.preload_memory(initial_memory)
    if initial_registers:
        for reg, value in initial_registers.items():
            executor.set_register(reg, value)
    return executor.run(stop_after=stop_after)
