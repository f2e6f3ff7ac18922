"""Unit tests for the reorder buffer and issue queues."""

import pytest

from repro.isa.instructions import InstructionClass
from repro.isa.trace import TraceInstruction
from repro.power.activity import ActivityCounters
from repro.sim.channel import SyncQueue
from repro.sim.clock import Clock
from repro.uarch.commit import CommitUnit
from repro.uarch.decode import DecodeRenameUnit
from repro.uarch.instruction import DynamicInstruction
from repro.uarch.issue_queue import IssueQueue
from repro.uarch.regfile import PhysicalRegisterFile
from repro.uarch.rename import RegisterAliasTable
from repro.uarch.rob import ReorderBuffer
from test_wakeup_waiters import (dispatch, issue, make_unit, pending_register,
                                 write_back)


def make_instr(opclass=InstructionClass.INT_ALU, sources=()):
    trace = TraceInstruction(index=0, pc=0x400000, opclass=opclass, dest=1,
                             sources=tuple(sources))
    return DynamicInstruction(trace, epoch=0)


def make_commit_unit(rob, regfile=None, stats=None):
    """A commit stage over ``rob``; its edge samples ROB occupancy."""
    regfile = regfile if regfile is not None else PhysicalRegisterFile()
    return CommitUnit(rob, rat=None, regfile=regfile, memory=None,
                      domain_name="decode",
                      forwarding_latency=lambda producer, consumer: 0.0,
                      activity=ActivityCounters(), stats=stats)


def dispatch_to_rob(rob, *instrs, regfile=None):
    """Decode and dispatch ``instrs`` in one group; the decode stage.

    The decode unit allocates ROB entries as it dispatches, so this is how a
    run fills the ROB.  One decode stage on a 1 ns clock: the group is
    decoded at t=0 and dispatched at t=1.
    """
    regfile = regfile if regfile is not None else PhysicalRegisterFile()
    width = max(1, len(instrs))
    decode = DecodeRenameUnit(
        input_channel=SyncQueue("fetch->decode", capacity=64),
        issue_channels={kind: SyncQueue(f"dispatch->{kind}", capacity=64)
                        for kind in ("int", "fp", "mem")},
        rob=rob, rat=RegisterAliasTable(regfile), regfile=regfile,
        clock=Clock("decode", period=1.0), current_epoch=lambda: 0,
        activity=ActivityCounters(), decode_width=width,
        dispatch_width=width, decode_stages=1)
    for instr in instrs:
        decode.input_channel.push(instr, 0.0)
    decode.clock_edge(0, 0.0)
    decode.clock_edge(1, 1.0)
    return decode


# ----------------------------------------------------------------------- ROB
def test_rob_allocate_retire_in_order():
    rob = ReorderBuffer(capacity=4)
    instrs = [make_instr() for _ in range(3)]
    dispatch_to_rob(rob, *instrs)
    assert list(rob._entries) == instrs
    assert [instr.rob_index for instr in instrs] == [0, 1, 2]
    for instr in (instrs[0], instrs[2]):       # the middle one is not done
        instr.completed = True
        instr.complete_time = 1.0
    commit = make_commit_unit(rob)
    commit.clock_edge(0, 2.0)
    assert list(rob._entries) == instrs[1:]    # retirement stops in order
    assert rob.retirements == 1
    assert instrs[0].commit_time == 2.0


def test_rob_capacity_enforced():
    rob = ReorderBuffer(capacity=2)
    instrs = [make_instr() for _ in range(3)]
    decode = dispatch_to_rob(rob, *instrs)
    assert list(rob._entries) == instrs[:2]
    assert decode.rob_stalls == 1              # the third waits in decode
    assert list(decode._pipeline) == instrs[2:]


def test_rob_squash_younger_than_branch():
    rob = ReorderBuffer(capacity=8)
    older = make_instr()
    branch = make_instr(opclass=InstructionClass.BRANCH)
    younger = [make_instr() for _ in range(3)]
    dispatch_to_rob(rob, older, branch, *younger)
    squashed = rob.squash_younger_than(branch.seq)
    assert squashed == younger
    assert all(i.squashed for i in younger)
    assert list(rob._entries) == [older, branch]
    assert rob.squashes == 3


def test_rob_occupancy_sampling_and_empty_retire():
    rob = ReorderBuffer(capacity=4)
    commit = make_commit_unit(rob)
    commit.clock_edge(0, 0.0)                  # empty: nothing to retire
    assert commit.committed == 0 and commit.commit_stall_cycles == 0
    dispatch_to_rob(rob, make_instr())         # not completed: commit stalls
    for cycle in (1, 2, 3):                    # one sample + a deferred run
        commit.clock_edge(cycle, float(cycle))
    commit.flush_samples()
    assert rob.occupancy_samples == 4
    assert rob.occupancy_accum == 3            # samples of 0, 1, 1 and 1
    assert commit.commit_stall_cycles == 3


def test_rob_invalid_capacity():
    with pytest.raises(ValueError):
        ReorderBuffer(capacity=0)


# --------------------------------------------------------------- issue queues
def test_issue_queue_dispatch_and_capacity():
    unit, queue, _ = make_unit(capacity=2)
    dispatch(unit, make_instr(), make_instr(), make_instr())
    assert len(queue._entries) == queue.capacity
    assert queue.dispatches == 2
    assert len(unit.input_channel._entries) == 1   # waits for a free entry


def test_issue_respects_operand_readiness():
    unit, _, regfile = make_unit()
    pending = pending_register(regfile)   # allocated = not produced
    waiting = make_instr(sources=())
    waiting.phys_sources = (pending,)
    ready = make_instr(sources=())
    ready.phys_sources = (3,)  # architectural value, always ready
    dispatch(unit, waiting, ready)
    assert issue(unit, 0.0) == [ready]
    write_back(regfile, pending, 5.0)
    assert issue(unit, 5.0) == [waiting]


def test_issue_is_oldest_first_and_limited_by_width():
    unit, queue, _ = make_unit(issue_width=2)
    instrs = [make_instr() for _ in range(4)]
    for instr in instrs:
        instr.phys_sources = ()
    dispatch(unit, *instrs)
    assert issue(unit, 0.0) == instrs[:2]
    assert queue._entries == instrs[2:]


def test_issue_queue_remove_and_squash():
    unit, queue, _ = make_unit()
    keep = make_instr()
    drop = make_instr()
    dispatch(unit, keep, drop)
    squashed = queue.squash_younger_than(keep.seq)
    assert squashed == [drop] and drop.squashed
    assert issue(unit, 0.0) == [keep]          # issue removes the entry
    assert not queue._entries
    assert queue.issues == 1


def test_issue_queue_occupancy_stats():
    unit, queue, regfile = make_unit()
    unit.clock_edge(0, 0.0)                    # empty: a deferred idle sample
    waiting = make_instr()
    waiting.phys_sources = (pending_register(regfile),)
    unit.input_channel.push(waiting, 0.0)
    unit.clock_edge(1, 1.0)                    # drains into the window
    unit.clock_edge(2, 2.0)
    unit.flush_samples()
    assert queue.occupancy_samples == 3
    assert queue.mean_occupancy == pytest.approx(2 / 3)
    assert queue.dispatches == 1


def test_issue_queue_invalid_capacity():
    with pytest.raises(ValueError):
        IssueQueue("iq", capacity=0)
