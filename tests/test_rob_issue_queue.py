"""Unit tests for the reorder buffer and issue queues."""

import pytest

from repro.isa.instructions import InstructionClass
from repro.isa.trace import TraceInstruction
from repro.power.activity import ActivityCounters
from repro.uarch.commit import CommitUnit
from repro.uarch.instruction import DynamicInstruction
from repro.uarch.issue_queue import IssueQueue
from repro.uarch.regfile import PhysicalRegisterFile
from repro.uarch.rob import ReorderBuffer, ReorderBufferFullError
from test_wakeup_waiters import dispatch, issue, make_unit, write_back


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


# ----------------------------------------------------------------------- ROB
def test_rob_allocate_retire_in_order():
    rob = ReorderBuffer(capacity=4)
    instrs = [make_instr() for _ in range(3)]
    for instr in instrs:
        rob.allocate(instr)
    assert rob.occupancy == 3
    assert rob.head() is instrs[0]
    assert rob.retire_head() is instrs[0]
    assert rob.head() is instrs[1]
    assert rob.retirements == 1


def test_rob_capacity_enforced():
    rob = ReorderBuffer(capacity=2)
    rob.allocate(make_instr())
    rob.allocate(make_instr())
    assert rob.is_full
    with pytest.raises(ReorderBufferFullError):
        rob.allocate(make_instr())


def test_rob_squash_younger_than_branch():
    rob = ReorderBuffer(capacity=8)
    older = make_instr()
    branch = make_instr(opclass=InstructionClass.BRANCH)
    younger = [make_instr() for _ in range(3)]
    for instr in [older, branch, *younger]:
        rob.allocate(instr)
    squashed = rob.squash_younger_than(branch.seq)
    assert squashed == younger
    assert all(i.squashed for i in younger)
    assert rob.occupancy == 2
    assert rob.squashes == 3


def test_rob_occupancy_sampling_and_empty_retire():
    rob = ReorderBuffer(capacity=4)
    commit = make_commit_unit(rob)
    commit.clock_edge(0, 0.0)
    rob.allocate(make_instr())                 # not completed: commit stalls
    for cycle in (1, 2, 3):                    # one sample + a deferred run
        commit.clock_edge(cycle, float(cycle))
    commit.flush_samples()
    assert rob.occupancy_samples == 4
    assert rob.mean_occupancy == pytest.approx(0.75)
    rob.retire_head()
    with pytest.raises(LookupError):
        rob.retire_head()


def test_rob_invalid_capacity():
    with pytest.raises(ValueError):
        ReorderBuffer(capacity=0)


# --------------------------------------------------------------- issue queues
def test_issue_queue_dispatch_and_capacity():
    unit, queue, _ = make_unit(capacity=2)
    dispatch(unit, make_instr(), make_instr(), make_instr())
    assert queue.is_full
    assert queue.dispatches == 2
    assert unit.input_channel.occupancy == 1   # waits for a free entry


def test_issue_respects_operand_readiness():
    unit, _, regfile = make_unit()
    pending = regfile.allocate(for_fp=False)   # allocated = not produced
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
    assert queue.occupancy == 0
    assert queue.issues == 1


def test_issue_queue_occupancy_stats():
    unit, queue, regfile = make_unit()
    unit.clock_edge(0, 0.0)                    # empty: a deferred idle sample
    waiting = make_instr()
    waiting.phys_sources = (regfile.allocate(for_fp=False),)
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
