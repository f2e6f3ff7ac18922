"""Unit tests for physical register file, rename logic and checkpoints."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.instructions import InstructionClass
from repro.isa.registers import ZERO_REG, fp_reg, int_reg
from repro.isa.trace import TraceInstruction
from repro.uarch.instruction import DynamicInstruction
from repro.uarch.regfile import ALWAYS_READY, PhysicalRegisterFile
from repro.uarch.rename import RegisterAliasTable, RenameError
from test_wakeup_waiters import write_back


def make_instr(dest=None, sources=(), opclass=InstructionClass.INT_ALU, pc=0x400000):
    trace = TraceInstruction(index=0, pc=pc, opclass=opclass, dest=dest,
                             sources=tuple(sources),
                             is_branch=opclass is InstructionClass.BRANCH)
    return DynamicInstruction(trace, epoch=0)


def no_forwarding(producer, consumer):
    return 0.0


# ----------------------------------------------------------------- register file
def test_initial_state_covers_architectural_registers():
    regfile = PhysicalRegisterFile()
    assert regfile.int_in_use == 32
    assert regfile.fp_in_use == 32
    assert regfile.free_int_count == 40
    assert regfile.free_fp_count == 40
    mapping = regfile.initial_mapping()
    assert mapping[int_reg(5)] == 5
    assert mapping[fp_reg(5)] == 72 + 5


def test_allocate_and_free_cycle():
    regfile = PhysicalRegisterFile()
    allocated = [regfile.allocate(for_fp=False) for _ in range(40)]
    assert all(p is not None for p in allocated)
    assert regfile.allocate(for_fp=False) is None
    assert regfile.allocation_failures == 1
    regfile.free(allocated[0])
    assert regfile.allocate(for_fp=False) == allocated[0]


def test_double_free_raises():
    regfile = PhysicalRegisterFile()
    phys = regfile.allocate(for_fp=True)
    regfile.free(phys)
    with pytest.raises(ValueError):
        regfile.free(phys)


def test_readiness_same_domain_and_cross_domain():
    regfile = PhysicalRegisterFile()
    phys = regfile.allocate(for_fp=False)
    regfile.mark_pending(phys)

    def forwarding(producer, consumer):
        return 1.5 if producer != consumer else 0.0

    assert not regfile.is_ready(phys, 100.0, "integer", forwarding)
    write_back(regfile, phys, 10.0, domain="memory")
    # same domain: ready at the produce time
    assert regfile.is_ready(phys, 10.0, "memory", forwarding)
    # cross domain: ready only after the forwarding latency
    assert not regfile.is_ready(phys, 11.0, "integer", forwarding)
    assert regfile.is_ready(phys, 11.5, "integer", forwarding)
    assert regfile.visible_ready_time(phys, "integer", forwarding) == pytest.approx(11.5)


def test_architectural_values_always_ready():
    regfile = PhysicalRegisterFile()
    assert regfile.ready_time(3) == ALWAYS_READY
    assert regfile.is_ready(3, 0.0, "integer", no_forwarding)


def test_regfile_requires_coverage_of_architectural_state():
    with pytest.raises(ValueError):
        PhysicalRegisterFile(num_int=16, num_fp=72)


# ------------------------------------------------------------------------ rename
def test_rename_allocates_and_maps():
    regfile = PhysicalRegisterFile()
    rat = RegisterAliasTable(regfile)
    instr = make_instr(dest=int_reg(1), sources=(int_reg(2), int_reg(3)))
    assert rat.rename(instr)
    assert instr.phys_sources == (2, 3)
    assert instr.phys_dest is not None and instr.phys_dest >= 32
    assert instr.prev_phys_dest == 1
    assert rat.lookup(int_reg(1)) == instr.phys_dest
    # a consumer renamed later reads the new mapping
    consumer = make_instr(dest=int_reg(4), sources=(int_reg(1),))
    rat.rename(consumer)
    assert consumer.phys_sources == (instr.phys_dest,)


def test_rename_zero_register_creates_no_dependence():
    regfile = PhysicalRegisterFile()
    rat = RegisterAliasTable(regfile)
    instr = make_instr(dest=ZERO_REG, sources=(ZERO_REG, int_reg(2)))
    assert rat.rename(instr)
    assert instr.phys_dest is None
    assert instr.phys_sources == (2,)


def test_rename_fails_cleanly_when_regfile_exhausted():
    regfile = PhysicalRegisterFile()
    rat = RegisterAliasTable(regfile)
    for _ in range(40):
        assert rat.rename(make_instr(dest=int_reg(1)))
    blocked = make_instr(dest=int_reg(2))
    assert not rat.rename(blocked)
    assert blocked.phys_dest is None


def test_checkpoint_restore_undoes_younger_renames():
    regfile = PhysicalRegisterFile()
    rat = RegisterAliasTable(regfile)
    older = make_instr(dest=int_reg(1))
    rat.rename(older)
    branch = make_instr(opclass=InstructionClass.BRANCH, sources=(int_reg(1),))
    rat.rename(branch)
    checkpoint = rat.take_checkpoint(branch.seq)
    younger = make_instr(dest=int_reg(1))
    rat.rename(younger)
    assert rat.lookup(int_reg(1)) == younger.phys_dest
    rat.restore(checkpoint)
    assert rat.lookup(int_reg(1)) == older.phys_dest
    assert rat.restores == 1


def test_restore_discards_younger_checkpoints():
    regfile = PhysicalRegisterFile()
    rat = RegisterAliasTable(regfile)
    first = rat.take_checkpoint(10)
    second = rat.take_checkpoint(20)
    rat.restore(first)
    assert rat.live_checkpoints == 0
    with pytest.raises(RenameError):
        rat.restore(second)


def test_release_checkpoint_is_idempotent():
    rat = RegisterAliasTable(PhysicalRegisterFile())
    checkpoint = rat.take_checkpoint(1)
    rat.release_checkpoint(checkpoint)
    rat.release_checkpoint(checkpoint)  # no error
    assert rat.live_checkpoints == 0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=31), min_size=1, max_size=39))
def test_property_rename_then_free_conserves_registers(dests):
    """Renaming N instructions and freeing their previous mappings keeps the
    total number of allocated physical registers equal to the architectural
    state plus the live in-flight destinations."""
    regfile = PhysicalRegisterFile()
    rat = RegisterAliasTable(regfile)
    instrs = []
    for dest in dests:
        instr = make_instr(dest=int_reg(dest))
        assert rat.rename(instr)
        instrs.append(instr)
    assert regfile.int_in_use == 32 + len(instrs)
    # commit them all: free the previous mapping of each
    for instr in instrs:
        regfile.free(instr.prev_phys_dest)
    assert regfile.int_in_use == 32
