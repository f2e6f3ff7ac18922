"""Unit tests for benchmark profiles, synthetic workloads and kernels."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.instructions import InstructionClass
from repro.workloads import (DEFAULT_BENCHMARKS, KERNELS, PROFILES, get_kernel,
                             get_profile, kernel_trace, make_trace, make_workload,
                             profiles_in_suite)
from repro.workloads.profiles import BenchmarkProfile


# ------------------------------------------------------------------- profiles
def test_all_profiles_are_internally_consistent():
    for profile in PROFILES.values():
        assert 0 <= profile.int_alu_fraction <= 1
        assert profile.mean_block_length >= 2
        assert profile.working_set_kb > 0


def test_default_benchmarks_exist():
    for name in DEFAULT_BENCHMARKS:
        assert name in PROFILES


def test_paper_specific_facts_encoded():
    fpppp = get_profile("fpppp")
    # ~1 branch per 67 instructions
    assert 1 / 80 <= fpppp.branches_per_instruction <= 1 / 50
    perl = get_profile("perl")
    assert perl.fp_fraction == 0.0
    assert 1 / 7 <= perl.branches_per_instruction <= 1 / 4
    ijpeg = get_profile("ijpeg")
    gcc = get_profile("gcc")
    assert (ijpeg.load_fraction + ijpeg.store_fraction
            < perl.load_fraction + perl.store_fraction)
    assert gcc.static_blocks > perl.static_blocks  # large code footprint


def test_profile_validation_rejects_bad_mixes():
    with pytest.raises(ValueError):
        BenchmarkProfile(name="bad", suite="x", description="",
                         branch_fraction=0.5, jump_fraction=0.0,
                         strongly_biased_fraction=0.5, strong_bias=0.9,
                         weak_bias=0.6, fp_fraction=0.4, fp_mul_share=0.0,
                         fp_div_share=0.0, load_fraction=0.4, store_fraction=0.1,
                         int_mul_share=0.0, dependence_distance=2.0,
                         working_set_kb=10, access_stride=8, static_blocks=10)


def test_get_profile_unknown_name():
    with pytest.raises(KeyError):
        get_profile("spec2049")


def test_profiles_in_suite_partitions():
    names = set()
    for suite in ("specint95", "specfp95", "mediabench"):
        for profile in profiles_in_suite(suite):
            names.add(profile.name)
    assert names == set(PROFILES)


# ---------------------------------------------------------- synthetic workloads
def test_trace_is_deterministic_for_same_seed():
    a = make_trace("perl", 500, seed=3)
    b = make_trace("perl", 500, seed=3)
    assert [(i.pc, i.opclass, i.taken) for i in a] == \
           [(i.pc, i.opclass, i.taken) for i in b]


def test_trace_differs_across_seeds():
    a = make_trace("perl", 500, seed=1)
    b = make_trace("perl", 500, seed=2)
    assert [(i.pc, i.taken) for i in a] != [(i.pc, i.taken) for i in b]


def test_trace_length_and_indices():
    trace = make_trace("gcc", 750, seed=1)
    assert len(trace) == 750
    assert [i.index for i in trace] == list(range(750))


def test_trace_mix_roughly_matches_profile():
    profile = get_profile("perl")
    trace = make_trace("perl", 6000, seed=1)
    instructions = list(trace)
    branch_share = sum(i.is_branch for i in instructions) / len(instructions)
    load_share = sum(i.is_load for i in instructions) / len(instructions)
    fp_share = sum(i.opclass.is_fp for i in instructions) / len(instructions)
    assert branch_share == pytest.approx(profile.branch_fraction, abs=0.05)
    assert load_share == pytest.approx(profile.load_fraction, abs=0.08)
    assert fp_share == pytest.approx(0.0, abs=0.01)


def test_fpppp_branch_density_is_very_low():
    trace = make_trace("fpppp", 6000, seed=1)
    instructions = list(trace)
    control = sum(i.is_control for i in instructions) / len(instructions)
    assert control < 0.03


def test_memory_instructions_have_addresses_and_branches_have_targets():
    trace = make_trace("li", 2000, seed=1)
    for instr in trace:
        if instr.opclass.is_memory:
            assert instr.mem_address is not None and instr.mem_address > 0
        if instr.is_control:
            assert instr.target_pc is not None


def test_branch_outcomes_follow_static_bias():
    """The same static branch pc must not be purely random: the predictor
    relies on per-pc bias."""
    trace = make_trace("ijpeg", 8000, seed=1)
    outcomes = {}
    for instr in trace:
        if instr.is_branch:
            outcomes.setdefault(instr.pc, []).append(instr.taken)
    biased = 0
    measured = 0
    for pc, taken_list in outcomes.items():
        if len(taken_list) >= 20:
            measured += 1
            rate = sum(taken_list) / len(taken_list)
            if rate <= 0.35 or rate >= 0.65:
                biased += 1
    assert measured > 0
    assert biased / measured > 0.5


def test_wrong_path_generator_is_deterministic_and_plausible():
    workload = make_workload("perl", seed=1)
    a = workload.wrong_path_instruction(0x400100, 3)
    b = workload.wrong_path_instruction(0x400100, 3)
    assert (a.pc, a.opclass, a.dest) == (b.pc, b.opclass, b.dest)
    assert a.opclass in (InstructionClass.INT_ALU, InstructionClass.LOAD)
    assert a.index == -1


def test_workload_static_program_properties():
    workload = make_workload("gcc", seed=1)
    assert len(workload.blocks) == get_profile("gcc").static_blocks
    assert workload.static_instruction_count > 0


def test_trace_requires_positive_length():
    with pytest.raises(ValueError):
        make_workload("perl").trace(0)


# -------------------------------------------------------------------- kernels
def test_all_kernels_produce_traces():
    for name in KERNELS:
        trace = kernel_trace(name, 8)
        assert len(trace) > 0


def test_vector_sum_kernel_semantics():
    kernel = get_kernel("vector_sum")
    program, memory = kernel.build(16)
    from repro.isa.executor import FunctionalExecutor
    executor = FunctionalExecutor(program)
    executor.preload_memory(memory)
    executor.run()
    expected = sum(memory.values())
    assert executor.state.read_reg(1) == expected


def test_matmul_kernel_computes_correct_product():
    kernel = get_kernel("matmul")
    program, memory = kernel.build(3)
    from repro.isa.executor import FunctionalExecutor
    from repro.workloads.kernels import ARRAY_A, ARRAY_B, ARRAY_C, WORD
    executor = FunctionalExecutor(program, max_instructions=200_000)
    executor.preload_memory(memory)
    executor.run()
    n = 3
    for i in range(n):
        for j in range(n):
            expected = sum(memory[ARRAY_A + (i * n + k) * WORD]
                           * memory[ARRAY_B + (k * n + j) * WORD]
                           for k in range(n))
            actual = executor.state.read_mem(ARRAY_C + (i * n + j) * WORD)
            assert actual == pytest.approx(expected)


def test_kernel_lookup_errors():
    with pytest.raises(KeyError):
        get_kernel("fourier")


def test_kernel_workloads_are_built_once_across_seeds():
    """Kernels ignore the seed, so every seed shares one materialisation
    (and a sweep warms it once); synthetic workloads keep one per seed."""
    from repro.core.scenario import Scenario, workload_specs
    from repro.workloads.registry import build_workload

    first, _ = build_workload("kernel:dot_product", 300, seed=1,
                              kernel_size=16)
    second, _ = build_workload("kernel:dot_product", 300, seed=2,
                               kernel_size=16)
    # one memo entry: the records and the warm-plan cache are shared
    assert all(a is b for a, b in zip(first, second))
    assert first._warm_plans is second._warm_plans
    assert (build_workload("perl", 300, seed=1)[0]._warm_plans
            is not build_workload("perl", 300, seed=2)[0]._warm_plans)
    scenarios = [Scenario(name=f"{workload}-{seed}", workload=workload,
                          num_instructions=300, seed=seed, kernel_size=16)
                 for workload in ("kernel:dot_product", "perl")
                 for seed in (1, 2)]
    assert workload_specs(scenarios) == [("kernel:dot_product", 300, 1, 16),
                                         ("perl", 300, 1, 16),
                                         ("perl", 300, 2, 16)]


def test_memo_hits_share_the_trace_records():
    """A memo hit hands out a fresh source over the *same* record tuple;
    a list passed in by a caller is still copied."""
    from repro.isa.trace import ListTraceSource
    from repro.workloads.registry import build_workload

    build_workload("perl", 200, seed=11)
    first, _ = build_workload("perl", 200, seed=11)
    second, _ = build_workload("perl", 200, seed=11)
    assert first is not second
    assert first._instructions is second._instructions
    records = list(first)
    assert ListTraceSource(records)._instructions is not records
    assert list(ListTraceSource(records)) == records


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(sorted(PROFILES)), st.integers(min_value=50, max_value=400))
def test_property_any_profile_generates_valid_traces(name, length):
    trace = make_trace(name, length, seed=7)
    assert len(trace) == length
    for instr in trace:
        assert instr.pc >= 0x400000
        if instr.dest is not None:
            assert 0 <= instr.dest < 64
