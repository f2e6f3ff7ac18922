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
from test_wakeup_waiters import (dispatch, issue, make_unit, pending_register,
                                 write_back)


def make_instr(dest=None, sources=(), opclass=InstructionClass.INT_ALU, pc=0x400000):
    trace = TraceInstruction(index=0, pc=pc, opclass=opclass, dest=dest,
                             sources=tuple(sources),
                             is_branch=opclass is InstructionClass.BRANCH)
    return DynamicInstruction(trace, epoch=0)


# ----------------------------------------------------------------- register file
def test_initial_state_covers_architectural_registers():
    regfile = PhysicalRegisterFile()
    assert regfile._int_in_use == 32
    assert regfile._fp_in_use == 32
    assert len(regfile._free_int) == 40
    assert len(regfile._free_fp) == 40
    mapping = regfile.initial_mapping()
    assert mapping[int_reg(5)] == 5
    assert mapping[fp_reg(5)] == 72 + 5


def test_allocate_and_free_cycle():
    regfile = PhysicalRegisterFile()
    rat = RegisterAliasTable(regfile)
    renamed = [make_instr(dest=int_reg(1)) for _ in range(40)]
    assert all(rat.rename(instr) for instr in renamed)
    assert not rat.rename(make_instr(dest=int_reg(1)))
    assert regfile.allocation_failures == 1
    regfile.free(renamed[0].prev_phys_dest)    # the first one commits
    again = make_instr(dest=int_reg(2))
    assert rat.rename(again)
    assert again.phys_dest == renamed[0].prev_phys_dest


def test_double_free_raises():
    regfile = PhysicalRegisterFile()
    phys = pending_register(regfile, fp=True)
    regfile.free(phys)
    with pytest.raises(ValueError):
        regfile.free(phys)


def test_readiness_same_domain_and_cross_domain():
    """A consumer issues once the value is visible in its own domain."""
    regfile = PhysicalRegisterFile()
    phys = pending_register(regfile)

    def forwarding(producer, consumer):
        return 1.5 if producer != consumer else 0.0

    consumers = {}
    for domain in ("memory", "integer"):
        unit, _, _ = make_unit(regfile, domain, forwarding=forwarding)
        instr = make_instr()
        instr.phys_sources = (phys,)
        dispatch(unit, instr)
        consumers[domain] = (unit, instr)
    assert issue(consumers["integer"][0], 100.0) == []   # not produced yet
    write_back(regfile, phys, 10.0, domain="memory")
    # same domain: ready at the produce time
    unit, instr = consumers["memory"]
    assert issue(unit, 10.0) == [instr]
    # cross domain: ready only after the forwarding latency
    unit, instr = consumers["integer"]
    assert issue(unit, 11.0) == []
    assert instr.wakeup_after == pytest.approx(11.5)
    assert issue(unit, 11.5) == [instr]


def test_architectural_values_always_ready():
    def forwarding(producer, consumer):
        return 1.5

    regfile = PhysicalRegisterFile()
    assert regfile._registers[3].ready_time == ALWAYS_READY
    # no producer domain, so no forwarding latency even across domains
    unit, _, _ = make_unit(regfile, "fp", forwarding=forwarding)
    instr = make_instr()
    instr.phys_sources = (3,)
    dispatch(unit, instr)
    assert issue(unit, 0.0) == [instr]


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
    assert rat._map[int_reg(1)] == instr.phys_dest
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
    assert rat._map[int_reg(1)] == younger.phys_dest
    rat.restore(checkpoint)
    assert rat._map[int_reg(1)] == older.phys_dest
    assert rat.restores == 1


def test_restore_discards_younger_checkpoints():
    regfile = PhysicalRegisterFile()
    rat = RegisterAliasTable(regfile)
    first = rat.take_checkpoint(10)
    second = rat.take_checkpoint(20)
    rat.restore(first)
    assert rat._checkpoints == []
    with pytest.raises(RenameError):
        rat.restore(second)


def test_release_checkpoint_is_idempotent():
    rat = RegisterAliasTable(PhysicalRegisterFile())
    checkpoint = rat.take_checkpoint(1)
    rat.release_checkpoint(checkpoint)
    rat.release_checkpoint(checkpoint)  # no error
    assert rat._checkpoints == []


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
    assert regfile._int_in_use == 32 + len(instrs)
    # commit them all: free the previous mapping of each
    for instr in instrs:
        regfile.free(instr.prev_phys_dest)
    assert regfile._int_in_use == 32
