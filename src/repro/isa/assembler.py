"""Two-pass assembler for the small RISC ISA.

Syntax (one instruction or label per line, ``#`` starts a comment)::

    main:
        li   r1, 0          # accumulator
        li   r2, 100        # loop bound
    loop:
        lw   r3, 0(r4)
        add  r1, r1, r3
        addi r4, r4, 8
        addi r5, r5, 1
        blt  r5, r2, loop
        halt

The assembler exists so example applications and workload kernels can be
written as readable text rather than as instruction-object soup; it is not a
reproduction target itself (the paper used pre-compiled SPEC binaries).
"""

from __future__ import annotations

import re
from typing import List, Tuple

from .instructions import Instruction, Opcode
from .program import Program
from .registers import parse_reg

_LABEL_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*):\s*(.*)$")
_MEM_OPERAND_RE = re.compile(r"^(-?\d+)\((\w+)\)$")

#: opcode groups by operand shape
_THREE_REG = {Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.AND,
              Opcode.OR, Opcode.XOR, Opcode.SLL, Opcode.SRL, Opcode.SLT,
              Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV}
_TWO_REG = {Opcode.MOV, Opcode.FMOV, Opcode.CVTIF, Opcode.CVTFI}
_REG_IMM = {Opcode.LI}
_REG_REG_IMM = {Opcode.ADDI}
_LOADS = {Opcode.LW, Opcode.FLW}
_STORES = {Opcode.SW, Opcode.FSW}
_COND_BRANCHES = {Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE}


class AssemblerError(ValueError):
    """Raised on malformed assembly input, with the offending line number."""

    def __init__(self, line_number: int, message: str) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def _split_operands(text: str) -> List[str]:
    return [token.strip() for token in text.split(",") if token.strip()]


def _parse_mem_operand(token: str, line_number: int) -> Tuple[int, int]:
    """Parse 'offset(reg)' into (offset, base register id)."""
    match = _MEM_OPERAND_RE.match(token.replace(" ", ""))
    if not match:
        raise AssemblerError(line_number, f"bad memory operand {token!r}")
    offset = int(match.group(1))
    base = parse_reg(match.group(2))
    return offset, base


def _parse_instruction(mnemonic: str, operand_text: str,
                       line_number: int) -> Instruction:
    try:
        opcode = Opcode(mnemonic.lower())
    except ValueError as exc:
        raise AssemblerError(line_number, f"unknown mnemonic {mnemonic!r}") from exc

    operands = _split_operands(operand_text)

    def expect(count: int) -> None:
        if len(operands) != count:
            raise AssemblerError(
                line_number,
                f"{opcode.value} expects {count} operands, got {len(operands)}")

    if opcode in _THREE_REG:
        expect(3)
        return Instruction(opcode, dest=parse_reg(operands[0]),
                           sources=(parse_reg(operands[1]), parse_reg(operands[2])))
    if opcode in _TWO_REG:
        expect(2)
        return Instruction(opcode, dest=parse_reg(operands[0]),
                           sources=(parse_reg(operands[1]),))
    if opcode in _REG_IMM:
        expect(2)
        return Instruction(opcode, dest=parse_reg(operands[0]),
                           immediate=int(operands[1], 0))
    if opcode in _REG_REG_IMM:
        expect(3)
        return Instruction(opcode, dest=parse_reg(operands[0]),
                           sources=(parse_reg(operands[1]),),
                           immediate=int(operands[2], 0))
    if opcode in _LOADS:
        expect(2)
        offset, base = _parse_mem_operand(operands[1], line_number)
        return Instruction(opcode, dest=parse_reg(operands[0]),
                           sources=(base,), immediate=offset)
    if opcode in _STORES:
        expect(2)
        offset, base = _parse_mem_operand(operands[1], line_number)
        return Instruction(opcode, sources=(parse_reg(operands[0]), base),
                           immediate=offset)
    if opcode in _COND_BRANCHES:
        expect(3)
        return Instruction(opcode,
                           sources=(parse_reg(operands[0]), parse_reg(operands[1])),
                           target_label=operands[2])
    if opcode in (Opcode.J, Opcode.JAL):
        expect(1)
        return Instruction(opcode, target_label=operands[0])
    if opcode is Opcode.JR:
        expect(1)
        return Instruction(opcode, sources=(parse_reg(operands[0]),))
    if opcode in (Opcode.HALT, Opcode.NOP):
        if operands:
            raise AssemblerError(line_number, f"{opcode.value} takes no operands")
        return Instruction(opcode)
    raise AssemblerError(line_number, f"unhandled opcode {opcode.value!r}")


def assemble(source: str, name: str = "program") -> Program:
    """Assemble a text program into a :class:`Program`."""
    program = Program(name=name)
    for line_number, raw_line in enumerate(source.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        match = _LABEL_RE.match(line)
        if match:
            label, rest = match.group(1), match.group(2).strip()
            try:
                program.add_label(label)
            except ValueError as exc:
                raise AssemblerError(line_number, str(exc)) from exc
            if not rest:
                continue
            line = rest
        parts = line.split(None, 1)
        mnemonic = parts[0]
        operand_text = parts[1] if len(parts) > 1 else ""
        program.append(_parse_instruction(mnemonic, operand_text, line_number))
    program.validate()
    return program
