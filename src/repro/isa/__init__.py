"""Instruction set, programs, assembler, functional execution and traces.

This package is the stand-in for the SimpleScalar ISA/functional layer the
paper builds on: it defines a small RISC instruction set, a textual assembler,
a functional executor, and the :class:`~repro.isa.trace.TraceInstruction`
dynamic-trace format that the timing models consume.
"""

from .assembler import AssemblerError, assemble
from .executor import ExecutionLimitExceeded, FunctionalExecutor, execute_program
from .instructions import (DEFAULT_LATENCIES, Instruction, InstructionClass,
                           Opcode, latency_of)
from .program import INSTRUCTION_SIZE, TEXT_BASE, Program
from .registers import (NUM_ARCH_REGS, ZERO_REG, fp_reg, int_reg, is_fp_reg,
                        is_int_reg, parse_reg, reg_name)
from .trace import ListTraceSource, TraceInstruction

__all__ = [
    "AssemblerError",
    "DEFAULT_LATENCIES",
    "ExecutionLimitExceeded",
    "FunctionalExecutor",
    "INSTRUCTION_SIZE",
    "Instruction",
    "InstructionClass",
    "ListTraceSource",
    "NUM_ARCH_REGS",
    "Opcode",
    "Program",
    "TEXT_BASE",
    "TraceInstruction",
    "ZERO_REG",
    "assemble",
    "execute_program",
    "fp_reg",
    "int_reg",
    "is_fp_reg",
    "is_int_reg",
    "latency_of",
    "parse_reg",
    "reg_name",
]
