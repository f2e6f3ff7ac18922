"""Event-driven wakeup: waiter lists, the ready list, and pinned full runs.

Wakeup keeps a waiter list per physical register and an age-ordered ready
list per queue.  It replaced a poll-based scan of the whole issue window and
had to reproduce that scan's simulations *bit for bit*: same issue
decisions, same telemetry, same energy.  These tests check the mechanism
(linking, wakeup on writeback, lazy unlink on squash, ready-list age order,
the push-invalidated ready gate) and the end-to-end contract: full runs
across topologies, controller scenarios, branch-recovery-heavy programs, and
scripted mid-run ``retime_domain`` calls that land between a producer's
writeback and the consumer's issue.  The full runs assert the results the
scan produced, recorded in ``test_golden_regression.PINS`` before the scan
was deleted.
"""

import pytest

from repro.isa.instructions import InstructionClass
from repro.isa.registers import fp_reg, int_reg
from repro.isa.trace import TraceInstruction
from repro.power.activity import ActivityCounters
from repro.sim.channel import SyncQueue
from repro.sim.clock import Clock
from repro.uarch.execute import ExecutionUnit, FunctionalUnitPool
from repro.uarch.instruction import DynamicInstruction
from repro.uarch.issue_queue import IssueQueue
from repro.uarch.regfile import PhysicalRegisterFile
from repro.uarch.rename import RegisterAliasTable
from test_golden_regression import assert_pinned


def make_instr(opclass=InstructionClass.INT_ALU, sources=()):
    trace = TraceInstruction(index=0, pc=0x400000, opclass=opclass, dest=1,
                             sources=tuple(sources))
    return DynamicInstruction(trace, epoch=0)


def no_forwarding(producer, consumer):
    return 0.0


def pending_register(regfile, fp=False):
    """A register rename allocated for a new result (not produced yet)."""
    producer = make_instr()
    producer.trace.dest = fp_reg(1) if fp else int_reg(1)
    assert RegisterAliasTable(regfile).rename(producer)
    return producer.phys_dest


# ------------------------------------------------- one cluster, driven by hand
def make_unit(regfile=None, domain="integer", capacity=8, issue_width=4,
              forwarding=no_forwarding):
    """An execution cluster on a 1 ns clock, its window and its regfile.

    The tests drive the stage bodies a run executes: ``_drain_input``
    (dispatch into the window), ``_complete_finished`` (writeback and
    wakeup) and ``_issue_ready`` (select and issue).
    """
    regfile = regfile if regfile is not None else PhysicalRegisterFile()
    queue = IssueQueue(f"iq_{domain}", capacity, domain_name=domain)
    unit = ExecutionUnit(
        name=f"{domain}-cluster", domain_name=domain, issue_queue=queue,
        input_channel=SyncQueue(f"dispatch->{domain}", capacity=64),
        regfile=regfile, forwarding_latency=forwarding,
        clock=Clock(domain, period=1.0),
        functional_units=FunctionalUnitPool("alu", 8),
        issue_width=issue_width, activity=ActivityCounters(),
        alu_block="alu_int", queue_block=f"iq_{domain}")
    return unit, queue, regfile


def dispatch(unit, *instrs, now=0.0):
    """Send ``instrs`` down the unit's dispatch channel and drain it."""
    for instr in instrs:
        unit.input_channel.push(instr, now)
    unit._drain_input(now)


def issue(unit, now):
    """One issue pass at ``now``; returns the entries it started."""
    started = len(unit._in_flight)
    unit._issue_ready(now)
    return unit._in_flight[started:]


def write_back(regfile, phys, now, domain="integer"):
    """Complete a producer of ``phys`` at ``now`` in ``domain``."""
    unit, _, _ = make_unit(regfile, domain)
    producer = make_instr()
    producer.phys_dest = phys
    producer.fu_done = now
    unit._in_flight.append(producer)
    unit._next_completion = now
    unit._complete_finished(now)


# ------------------------------------------------------------ queue mechanics
def test_dispatch_links_waiters_and_writeback_wakes():
    unit, queue, regfile = make_unit()
    pending = pending_register(regfile)
    waiting = make_instr()
    waiting.phys_sources = (pending, 3)        # one pending, one arch-ready
    dispatch(unit, waiting)
    assert waiting.pending_ops == 1
    assert waiting.wakeup_queue is queue
    assert regfile._registers[pending].waiters == [waiting]
    assert queue._ready == []                  # not woken yet
    assert issue(unit, 0.0) == []

    write_back(regfile, pending, 5.0)
    assert waiting.pending_ops == 0
    assert regfile._registers[pending].waiters == []
    assert queue._ready == [waiting]
    assert issue(unit, 2.0) == []
    assert issue(unit, 5.0) == [waiting]


def test_no_pending_operands_goes_straight_to_the_ready_list():
    unit, queue, _ = make_unit()
    instr = make_instr()
    instr.phys_sources = (3,)                  # architectural, always ready
    dispatch(unit, instr)
    assert queue._ready == [instr]
    assert issue(unit, 0.0) == [instr]


def test_push_ready_keeps_age_order_and_invalidates_the_gate():
    queue = IssueQueue("iq", capacity=8, domain_name="integer")
    a, b, c = make_instr(), make_instr(), make_instr()   # ascending seq
    queue.ready_gate = 99.0
    for instr in (c, a, b):                    # writeback order != age order
        queue.push_ready(instr)
    assert queue._ready == [a, b, c]
    assert queue.ready_gate == -1.0            # a push can add an earlier entry
    assert all(i.wakeup_after == -1.0 for i in (a, b, c))


def test_squashed_waiter_is_skipped_on_writeback():
    unit, queue, regfile = make_unit()
    pending = pending_register(regfile)
    older = make_instr()
    older.phys_sources = (pending,)
    wrong_path = make_instr()
    wrong_path.phys_sources = (pending,)
    dispatch(unit, older, wrong_path)
    squashed = queue.squash_younger_than(older.seq)
    assert squashed == [wrong_path] and wrong_path.squashed
    # the waiter link survives the squash (lazy unlink) ...
    assert wrong_path in regfile._registers[pending].waiters
    write_back(regfile, pending, 4.0)
    # ... but the writeback drops it without a wakeup
    assert queue._ready == [older]
    assert regfile._registers[pending].waiters == []


def test_squash_drops_ready_list_entries():
    unit, queue, _ = make_unit()
    instrs = [make_instr() for _ in range(3)]
    for instr in instrs:
        instr.phys_sources = ()
    dispatch(unit, *instrs)
    assert queue._ready == instrs
    queue.squash_younger_than(instrs[0].seq)
    assert queue._ready == [instrs[0]]
    assert queue._entries == [instrs[0]]


def test_freeing_a_register_clears_stale_waiters():
    regfile = PhysicalRegisterFile()
    index = pending_register(regfile)
    leftover = make_instr()
    leftover.squashed = True
    regfile._registers[index].waiters.append(leftover)
    regfile.free(index)
    assert regfile._registers[index].waiters == []


def test_ready_gate_suppresses_passes_until_the_visibility_horizon():
    def fwd(producer, consumer):
        return 3.0

    unit, queue, regfile = make_unit(forwarding=fwd)
    pending = pending_register(regfile)
    instr = make_instr()
    instr.phys_sources = (pending,)
    dispatch(unit, instr)
    write_back(regfile, pending, 10.0, domain="fp")   # cross-domain producer

    assert issue(unit, 5.0) == []
    assert queue.ready_gate == pytest.approx(13.0)   # 10.0 ready + 3.0 fwd
    before = queue.wakeup_searches
    assert issue(unit, 12.0) == []
    assert queue.wakeup_searches == before     # gated: no entry examined
    assert issue(unit, 13.0) == [instr]


def test_event_and_scan_make_identical_selections():
    """The picks the scan made on this window, oldest awake entries first."""
    def fwd(producer, consumer):
        return 2.0

    def selection(now):
        unit, _, regfile = make_unit(issue_width=2, forwarding=fwd)
        pending = pending_register(regfile)
        blocked = make_instr()
        blocked.phys_sources = (pending,)
        awake = [make_instr() for _ in range(3)]
        for instr in awake:
            instr.phys_sources = (3,)
        window = [blocked, *awake]             # dispatch (age) order
        dispatch(unit, *window)
        write_back(regfile, pending, 6.0, domain="fp")
        return [window.index(i) for i in issue(unit, now)]

    assert [selection(now) for now in (0.0, 7.0, 8.0)] \
        == [[1, 2], [1, 2], [0, 1]]


# ------------------------------------------------------------ pinned full runs
@pytest.mark.parametrize("scenario", [
    "base",                    # synchronous: no forwarding latency at all
    "gals5",                   # the paper's 5-domain machine
    "fem3",                    # 3-domain split
    "memsplit2",               # 2-domain memory split
    "dotprod-gals5",           # assembled kernel workload
])
def test_event_wakeup_is_bit_identical_to_scan(scenario):
    assert_pinned(scenario)


def test_event_wakeup_bit_identical_on_long_program_with_recoveries():
    # the pin only means something if the run exercised branch recoveries
    # (waiter unlink on squash); the case checks that it did
    assert_pinned("gals5-2500")


def test_event_wakeup_bit_identical_under_online_dvfs_controller():
    # the occupancy controller retimes domains mid-run: cached visibility
    # prices must go stale exactly as they did under the scan
    assert_pinned("gals5-perl-occupancy-800")


def test_mid_run_retime_between_writeback_and_issue_is_scheme_invariant():
    assert_pinned("retime")


def test_mid_run_retime_storm_is_scheme_invariant():
    assert_pinned("retime-storm")
