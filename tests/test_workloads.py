"""Unit tests for benchmark profiles, synthetic workloads and kernels."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.instructions import InstructionClass
from repro.workloads import (DEFAULT_BENCHMARKS, KERNELS, PROFILES, get_kernel,
                             get_profile, kernel_trace, make_trace, make_workload,
                             profiles_in_suite)
from repro.workloads.phased import PhasedWorkload
from repro.workloads.profiles import WORKLOAD_MIXES, BenchmarkProfile


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


# ------------------------------------------------------ synthesis, byte-pinned
#: Seeds and lengths of the synthesis pins below.
PIN_SEEDS = (1, 2)
PIN_PROFILE_LENGTH = 3000
PIN_PHASED_LENGTHS = (777, 5000)


def records_digest(records):
    """sha256 over every record's dataclass repr (each field by name and
    value, nested records included), in order."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(repr(record).encode())
    return digest.hexdigest()[:16]


def profile_digest(name, seed):
    """Static program, correct-path trace and 50 wrong-path samples."""
    workload = make_workload(name, seed=seed)
    wrong_path = [workload.wrong_path_instruction(0x400000 + 28 * k, k)
                  for k in range(50)]
    return records_digest([*workload.blocks,
                           *workload.trace(PIN_PROFILE_LENGTH), *wrong_path])


def phased_digest(mix, seed, length):
    return records_digest(
        PhasedWorkload(WORKLOAD_MIXES[mix], seed=seed).trace(length))


#: Recorded before the static-program builder was fused into one loop;
#: any change to the order or arguments of a synthesis draw moves them.
PROFILE_PINS = {'adpcm': {1: '5b5273977333b5c2', 2: '0cdff1d07f62c565'},
 'applu': {1: '25e0860ff5072bd9', 2: '0dba2e3cab04f696'},
 'compress': {1: '0fb0aa93a905385c', 2: 'e1073cc3c7970a25'},
 'epic': {1: '26f13ed312065a2c', 2: '65824df5d3cdab83'},
 'fpppp': {1: '6bb5c817f7e168ae', 2: '642084354a7cf095'},
 'gcc': {1: '9f13628ad8812af9', 2: '627d3c1b598ab9bf'},
 'go': {1: '0ef3ffee268d17df', 2: 'd20e9e2c776a75ca'},
 'gsm': {1: '32ec22ae381cd408', 2: '333d2d9738072545'},
 'ijpeg': {1: 'f92cfc65e95d189f', 2: 'de6c4f4d70b5eb16'},
 'jpeg': {1: '405240391bd82808', 2: '6540bc7fb05881fd'},
 'li': {1: '6a367ef77de7cc38', 2: '3f95f2d06feb10ea'},
 'm88ksim': {1: '5fb3a396a670c3ab', 2: 'd0cac4eedfbd7432'},
 'mpeg2': {1: '8cf3dfacc0bdd5d2', 2: '06a9976da489f62d'},
 'perl': {1: '999e10983fa8b9ce', 2: '805aa07db6d63119'},
 'swim': {1: '2335697f74546a70', 2: '798d34b325b6ecba'},
 'tomcatv': {1: '5b594be6d83f1a43', 2: 'd126befdc8ecb889'},
 'vortex': {1: '4ce830f4263b5316', 2: '508093a6643d02fc'}}
PHASED_PINS = {'calm-storm': {(1, 777): '7224a101a0c414ba',
                (1, 5000): 'c979fdcbc8962641',
                (2, 777): '26b138d6a664e7e6',
                (2, 5000): 'bbdced1b8025ed22'},
 'hotset-perl': {(1, 777): '4bac6109debcb7f4',
                 (1, 5000): '75e0c43fab34fa86',
                 (2, 777): '78b6202187cc21ba',
                 (2, 5000): 'ab211664f50d3af5'},
 'int-fp-mem': {(1, 777): '20073996911cefe1',
                (1, 5000): 'a5bd302d68a27fef',
                (2, 777): '3a3fa3d240e32e07',
                (2, 5000): '95e8255e7b3fa412'},
 'intfp-osc': {(1, 777): '8ed8356a2526ba78',
               (1, 5000): '38fe5d168e3b4196',
               (2, 777): '74e11e9318b3a2f0',
               (2, 5000): 'f00d38d8ce3fb2a3'},
 'kernel-warmup': {(1, 777): '806e54d32e8d1daf',
                   (1, 5000): '521290ed0ded3f65',
                   (2, 777): '524647f3ba76ce26',
                   (2, 5000): '3a23f0e9da12d7b6'},
 'membound-osc': {(1, 777): '772296b0e3108c44',
                  (1, 5000): '72800b1ab4cf7577',
                  (2, 777): '1f1c3b7a5f71ecb2',
                  (2, 5000): '35efc7f9d27e305f'}}


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_profile_synthesis_is_pinned_byte_for_byte(name):
    assert {seed: profile_digest(name, seed)
            for seed in PIN_SEEDS} == PROFILE_PINS[name]


@pytest.mark.parametrize("mix", sorted(WORKLOAD_MIXES))
def test_phased_synthesis_is_pinned_byte_for_byte(mix):
    assert {(seed, length): phased_digest(mix, seed, length)
            for seed in PIN_SEEDS
            for length in PIN_PHASED_LENGTHS} == PHASED_PINS[mix]


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
    """Kernels ignore the seed, so every seed shares one materialisation;
    synthetic workloads keep one per seed."""
    from repro.workloads.registry import build_workload, workload_key

    first, _ = build_workload("kernel:dot_product", 300, seed=1,
                              kernel_size=16)
    second, _ = build_workload("kernel:dot_product", 300, seed=2,
                               kernel_size=16)
    # one memo entry: the records and the warm-plan cache are shared
    assert all(a is b for a, b in zip(first, second))
    assert first._warm_plans is second._warm_plans
    assert (build_workload("perl", 300, seed=1)[0]._warm_plans
            is not build_workload("perl", 300, seed=2)[0]._warm_plans)
    keys = {workload_key(workload, 300, seed, 16)
            for workload in ("kernel:dot_product", "perl")
            for seed in (1, 2)}
    assert keys == {("kernel:dot_product", 300, None, 16),
                    ("perl", 300, 1, 16), ("perl", 300, 2, 16)}


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
