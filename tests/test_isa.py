"""Unit tests for the ISA layer: registers, instructions, assembler, executor."""

import pytest

from repro.isa import (AssemblerError, FunctionalExecutor, Instruction,
                       InstructionClass, Opcode, assemble, execute_program,
                       fp_reg, int_reg, latency_of, parse_reg, reg_name)
from repro.isa.program import INSTRUCTION_SIZE, TEXT_BASE
from repro.isa.registers import ZERO_REG, is_fp_reg, is_int_reg


# -------------------------------------------------------------------- registers
def test_register_namespace_roundtrip():
    assert int_reg(5) == 5
    assert fp_reg(3) == 35
    assert is_int_reg(int_reg(31))
    assert is_fp_reg(fp_reg(0))
    assert reg_name(int_reg(7)) == "r7"
    assert reg_name(fp_reg(2)) == "f2"
    assert reg_name(None) == "-"
    assert parse_reg("r12") == 12
    assert parse_reg("f4") == fp_reg(4)


def test_register_bounds_checked():
    with pytest.raises(ValueError):
        int_reg(32)
    with pytest.raises(ValueError):
        fp_reg(-1)
    with pytest.raises(ValueError):
        parse_reg("x3")


# ------------------------------------------------------------------ instructions
def test_opcode_classes_and_latencies():
    add = Instruction(Opcode.ADD, dest=1, sources=(2, 3))
    assert add.opclass is InstructionClass.INT_ALU
    assert latency_of(add.opclass) == 1
    fdiv = Instruction(Opcode.FDIV, dest=fp_reg(1), sources=(fp_reg(2), fp_reg(3)))
    assert fdiv.opclass is InstructionClass.FP_DIV
    assert latency_of(fdiv.opclass) == 12
    assert latency_of(InstructionClass.INT_ALU, {InstructionClass.INT_ALU: 3}) == 3
    load = Instruction(Opcode.LW, dest=1, sources=(2,), immediate=8)
    assert load.is_load and load.opclass.is_memory
    branch = Instruction(Opcode.BNE, sources=(1, 2), target_label="loop")
    assert branch.is_branch and branch.opclass.is_control
    assert "bne" in str(branch)


# --------------------------------------------------------------------- assembler
def test_assemble_simple_program():
    program = assemble("""
    main:
        li   r1, 10
        addi r1, r1, -2
        sw   r1, 0(r2)
        halt
    """)
    assert len(program) == 4
    assert program.labels["main"] == 0
    assert program.instructions[0].immediate == 10
    assert program.instructions[2].is_store
    assert program.pc_of_index(1) == TEXT_BASE + INSTRUCTION_SIZE
    assert "li" in program.listing()


def test_assemble_rejects_unknown_mnemonic_and_bad_operands():
    with pytest.raises(AssemblerError):
        assemble("frobnicate r1, r2\nhalt")
    with pytest.raises(AssemblerError):
        assemble("add r1, r2\nhalt")
    with pytest.raises(AssemblerError):
        assemble("lw r1, banana\nhalt")


def test_assemble_rejects_duplicate_label_and_missing_target():
    with pytest.raises(AssemblerError):
        assemble("x:\nx:\nhalt")
    with pytest.raises(ValueError):
        assemble("beq r1, r2, nowhere\nhalt")


def test_program_must_end_in_halt_or_jump():
    with pytest.raises(ValueError):
        assemble("add r1, r2, r3")


def test_program_pc_mapping_errors():
    program = assemble("main:\n  halt")
    with pytest.raises(ValueError):
        program.index_of_pc(TEXT_BASE + 1)
    with pytest.raises(ValueError):
        program.index_of_pc(TEXT_BASE + 100 * INSTRUCTION_SIZE)
    with pytest.raises(KeyError):
        program.pc_of_label("missing")


# ---------------------------------------------------------------------- executor
def test_executor_loop_and_memory():
    program = assemble("""
    main:
        li   r1, 0
        li   r2, 0
        li   r3, 5
        li   r4, 4096
    loop:
        lw   r5, 0(r4)
        add  r1, r1, r5
        addi r4, r4, 8
        addi r2, r2, 1
        blt  r2, r3, loop
        sw   r1, 0(r4)
        halt
    """)
    memory = {4096 + 8 * i: i + 1 for i in range(5)}
    executor = FunctionalExecutor(program)
    executor.preload_memory(memory)
    trace = executor.run()
    # sum 1..5 = 15 stored at 4096 + 5*8
    assert executor.state.read_mem(4096 + 40) == 15
    branches = [t for t in trace if t.is_branch]
    assert len(branches) == 5
    assert [b.taken for b in branches] == [True, True, True, True, False]
    loads = [t for t in trace if t.is_load]
    assert [l.mem_address for l in loads] == [4096 + 8 * i for i in range(5)]


def test_executor_fp_and_conversion():
    program = assemble("""
    main:
        li    r1, 3
        cvtif f1, r1
        fadd  f2, f1, f1
        fmul  f3, f2, f1
        cvtfi r2, f3
        sw    r2, 0(r3)
        halt
    """)
    trace = execute_program(program)
    assert len(trace) == 7
    fp_ops = [t for t in trace if t.opclass.is_fp]
    assert len(fp_ops) == 4  # cvtif, fadd, fmul, cvtfi


def test_executor_respects_instruction_limit():
    program = assemble("""
    main:
        j main
    """)
    from repro.isa.executor import ExecutionLimitExceeded
    with pytest.raises(ExecutionLimitExceeded):
        FunctionalExecutor(program, max_instructions=100).run()


def test_zero_register_is_immutable():
    program = assemble("""
    main:
        li r0, 99
        sw r0, 0(r1)
        halt
    """)
    executor = FunctionalExecutor(program)
    executor.run()
    assert executor.state.read_reg(ZERO_REG) == 0
    assert executor.state.read_mem(0) == 0


def test_trace_next_pc_for_taken_and_fallthrough():
    program = assemble("""
    main:
        beq r1, r1, target
        addi r2, r2, 1
    target:
        halt
    """)
    trace = execute_program(program)
    branch = trace.peek()
    assert branch.is_branch and branch.taken
    assert branch.next_pc() == program.pc_of_label("target")
