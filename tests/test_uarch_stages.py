"""Targeted unit tests for the fetch and decode/rename pipeline stages."""


from repro.isa.instructions import InstructionClass
from repro.isa.registers import int_reg
from repro.isa.trace import ListTraceSource, TraceInstruction
from repro.memory.hierarchy import MemoryHierarchy
from repro.power.activity import ActivityCounters
from repro.sim.channel import SyncQueue
from repro.sim.clock import Clock
from repro.uarch.branch_predictor import BimodalPredictor, BranchTargetBuffer, BranchUnit
from repro.uarch.fetch import FetchUnit, RedirectMessage


def make_trace_instruction(index, pc, opclass=InstructionClass.INT_ALU,
                           taken=False, target=None):
    return TraceInstruction(index=index, pc=pc, opclass=opclass,
                            dest=int_reg(1), sources=(int_reg(2),),
                            is_branch=opclass is InstructionClass.BRANCH,
                            taken=taken, target_pc=target)


def queued(channel):
    """The items waiting in a same-domain channel, oldest first."""
    return [item for item, _ in channel._entries]


def remaining(source):
    """Correct-path instructions the fetch unit has not read yet."""
    return len(source) - source._position


def make_fetch_unit(instructions, fetch_width=4):
    source = ListTraceSource(instructions, name="unit-test")
    output = SyncQueue("fetch->decode", capacity=32)
    redirect = SyncQueue("redirect", capacity=4)
    branch_unit = BranchUnit(BimodalPredictor(64), BranchTargetBuffer(16, 2))
    memory = MemoryHierarchy()
    activity = ActivityCounters()
    unit = FetchUnit(source=source, output_channel=output,
                     redirect_channel=redirect, branch_unit=branch_unit,
                     memory=memory, clock=Clock("fetch", period=1.0),
                     activity=activity, fetch_width=fetch_width)
    return unit, output, redirect, branch_unit, activity


def test_fetch_pushes_a_full_group_per_cycle():
    instructions = [make_trace_instruction(i, 0x400000 + 4 * i) for i in range(6)]
    unit, output, _, _, activity = make_fetch_unit(instructions)
    # first access is an I-cache cold miss: the cycle stalls
    unit.clock_edge(0, 0.0)
    assert len(output._entries) == 0
    assert unit.icache_stall_cycles >= 1
    # once the line is resident, a full group of 4 is fetched per cycle
    unit._busy_until = float("-inf")
    unit.clock_edge(1, 70.0)
    assert len(output._entries) == 4
    fetched = queued(output)
    assert [i.trace.index for i in fetched] == [0, 1, 2, 3]
    assert all(i.fetch_time == 70.0 for i in fetched)
    assert activity.cell("icache")[0] >= 1


def test_fetch_enters_wrong_path_mode_on_misprediction():
    branch_pc = 0x400010
    instructions = [
        make_trace_instruction(0, 0x400000),
        make_trace_instruction(1, branch_pc, InstructionClass.BRANCH,
                               taken=True, target=0x400100),
        make_trace_instruction(2, 0x400100),
    ]
    unit, output, redirect, branch_unit, _ = make_fetch_unit(instructions)
    # train the predictor to say not-taken for this branch so the (actually
    # taken) branch is guaranteed to mispredict
    for _ in range(4):
        branch_unit.predictor.update(branch_pc, False, False)
    unit.memory.fetch_access(0x400000)  # pre-warm the line
    unit.clock_edge(0, 0.0)
    fetched = queued(output)
    branch = next(i for i in fetched if i.is_branch)
    assert branch.mispredicted
    assert unit.wrong_path_mode
    # subsequent fetch cycles produce wrong-path instructions
    unit.clock_edge(1, 1.0)
    assert unit.fetched_wrong_path > 0
    wrong = [i for i in queued(output) if i.wrong_path]
    assert wrong and all(i.trace.index == -1 for i in wrong)
    # the correct-path source did not advance past the branch's successor
    assert remaining(unit.source) == 1

    # a redirect with a newer epoch ends wrong-path mode
    redirect.push(RedirectMessage(epoch=unit.epoch + 1, branch_seq=branch.seq,
                                  resume_pc=0x400100), 1.5)
    unit.clock_edge(2, 2.0)
    assert not unit.wrong_path_mode
    assert unit.epoch == 1
    assert unit.redirects_received == 1


def test_fetch_stops_at_predicted_taken_branch():
    branch_pc = 0x400004
    instructions = [
        make_trace_instruction(0, 0x400000),
        make_trace_instruction(1, branch_pc, InstructionClass.BRANCH,
                               taken=True, target=0x400200),
        make_trace_instruction(2, 0x400200),
        make_trace_instruction(3, 0x400204),
    ]
    unit, output, _, branch_unit, _ = make_fetch_unit(instructions)
    for _ in range(4):
        branch_unit.predictor.update(branch_pc, True, True)
    unit.memory.fetch_access(0x400000)
    unit.clock_edge(0, 0.0)
    # the group ends with the correctly-predicted taken branch
    assert len(output._entries) == 2
    assert not unit.wrong_path_mode


def test_fetch_stalls_when_output_channel_is_full():
    instructions = [make_trace_instruction(i, 0x400000 + 4 * i) for i in range(8)]
    source = ListTraceSource(instructions)
    output = SyncQueue("fetch->decode", capacity=2)
    redirect = SyncQueue("redirect", capacity=4)
    unit = FetchUnit(source=source, output_channel=output,
                     redirect_channel=redirect,
                     branch_unit=BranchUnit(BimodalPredictor(64),
                                            BranchTargetBuffer(16, 2)),
                     memory=MemoryHierarchy(), clock=Clock("fetch", period=1.0),
                     activity=ActivityCounters(), fetch_width=4)
    unit.memory.fetch_access(0x400000)
    unit.clock_edge(0, 0.0)
    assert len(output._entries) == 2
    unit.clock_edge(1, 1.0)
    assert unit.fetch_stall_cycles >= 1
    assert remaining(source) == 6
