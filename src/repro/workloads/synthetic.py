"""Synthetic trace generation from benchmark profiles.

A :class:`SyntheticWorkload` turns a :class:`~repro.workloads.profiles.BenchmarkProfile`
into a concrete, deterministic (seeded) dynamic instruction stream:

1. A static control-flow graph is synthesised: ``static_blocks`` basic blocks,
   each a sequence of instruction slots whose classes follow the profile's
   instruction mix, terminated by a conditional branch (or occasionally an
   unconditional jump).  Every static branch gets a fixed taken-bias, every
   static memory slot gets a base region and stride inside the working set,
   and register dependences are wired with the profile's dependence distance.

2. The dynamic trace is produced by walking the CFG: branch outcomes are drawn
   from the static bias, memory addresses advance along the slot's stride and
   wrap inside the working set.

Because the same static branch always has the same bias and the same static
load walks a coherent address stream, a real branch predictor and real caches
behave realistically on the synthetic stream -- which is all the paper's
figures require of the workload (they depend on branch density and
predictability, FP/memory intensity and dependence structure, not on the
actual SPEC semantics).

The generator also produces *wrong-path* instructions on demand; the fetch
unit injects those after a mispredicted branch until the redirect arrives.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .._compat import SLOTS
from ..isa.instructions import InstructionClass
from ..isa.program import INSTRUCTION_SIZE, TEXT_BASE
from ..isa.registers import fp_reg, int_reg
from ..isa.trace import ListTraceSource, TraceInstruction
from .profiles import BenchmarkProfile, get_profile

#: Base of the synthetic data segment.
DATA_BASE = 0x1000_0000

#: Registers reserved for synthetic codegen (avoid r0 which is hard-wired zero).
_INT_REG_POOL = [int_reg(i) for i in range(1, 28)]
_FP_REG_POOL = [fp_reg(i) for i in range(0, 28)]


@dataclass(**SLOTS)
class _StaticSlot:
    """One static non-control instruction slot inside a basic block."""

    opclass: InstructionClass
    dest: Optional[int]
    sources: Tuple[int, ...]
    # memory slots only:
    region_base: int = 0
    region_span: int = 0
    stride: int = 0


@dataclass(**SLOTS)
class _StaticBranch:
    """The control-flow terminator of a basic block."""

    opclass: InstructionClass  # BRANCH or JUMP
    sources: Tuple[int, ...]
    taken_bias: float
    target_block: int
    fallthrough_block: int


@dataclass(**SLOTS)
class _StaticBlock:
    """A synthetic basic block."""

    index: int
    start_pc: int
    slots: List[_StaticSlot]
    terminator: Optional[_StaticBranch]

    @property
    def length(self) -> int:
        return len(self.slots) + (1 if self.terminator is not None else 0)


class SyntheticWorkload:
    """Deterministic synthetic benchmark derived from a behaviour profile."""

    def __init__(self, profile: BenchmarkProfile, seed: int = 1) -> None:
        self.profile = profile
        self.seed = seed
        # zlib.crc32 is stable across processes (unlike hash()), keeping
        # workloads reproducible run to run.
        self._rng = random.Random(
            (zlib.crc32(profile.name.encode()) & 0xFFFF) * 1_000_003 + seed)
        self._blocks: List[_StaticBlock] = []
        self._build_static_program()
        # dynamic-walk state
        self._current_block = 0
        self._slot_visits: dict = {}
        #: (pc, offset) -> synthesised wrong-path instruction; the generator
        #: is a pure function of its arguments, and mispredictions replay the
        #: same wrong paths across repeated runs of a shared workload
        self._wrong_path_cache: dict = {}

    # ------------------------------------------------------------ static CFG
    def _build_static_program(self) -> None:
        """Synthesise every basic block of the static CFG.

        Per block: the body length, then each slot's class, memory region
        and destination, then each slot's sources (dependence distances
        follow the profile), then the terminator.  Traces are pinned byte
        for byte, so every draw keeps its order and arguments; the loop only
        hoists the profile cuts and the bound RNG methods out of it.
        """
        profile = self.profile
        rng = self._rng
        random_ = rng.random
        choice = rng.choice
        uniform = rng.uniform
        randrange = rng.randrange
        expovariate = rng.expovariate
        gauss = rng.gauss
        num_blocks = profile.static_blocks
        mean_len = profile.mean_block_length
        len_sigma = mean_len * 0.3
        load_cut = profile.load_fraction
        store_cut = load_cut + profile.store_fraction
        mem_cut = max(load_cut, store_cut)
        fp_cut = store_cut + profile.fp_fraction
        fp_div_cut = profile.fp_div_share
        fp_mul_cut = profile.fp_div_share + profile.fp_mul_share
        int_mul_share = profile.int_mul_share
        working_set_bytes = profile.working_set_kb * 1024
        hot_region_bytes = min(working_set_bytes, 8 * 1024)
        access_stride = profile.access_stride
        hot_min_span = access_stride * 4
        cold_min_span = access_stride * 8
        exp_rate = 1.0 / profile.dependence_distance
        LOAD = InstructionClass.LOAD
        STORE = InstructionClass.STORE
        FP_ALU = InstructionClass.FP_ALU
        FP_MUL = InstructionClass.FP_MUL
        FP_DIV = InstructionClass.FP_DIV
        INT_ALU = InstructionClass.INT_ALU
        INT_MUL = InstructionClass.INT_MUL
        int_pool = _INT_REG_POOL
        fp_pool = _FP_REG_POOL
        blocks = self._blocks
        pc = TEXT_BASE
        for block_index in range(num_blocks):
            body_len = max(1, int(gauss(mean_len, len_sigma)))
            body_len = min(body_len, 120)
            slots: List[_StaticSlot] = []
            for _ in range(body_len):
                draw = random_()
                if draw < mem_cut:
                    opclass = LOAD if draw < load_cut else STORE
                    # Most accesses hit a small hot region (stack / current
                    # record), giving the high temporal locality real
                    # programs exhibit; a minority of slots stream over the
                    # full working set and produce the capacity misses that
                    # grow with working_set_kb.
                    if random_() < 0.85:
                        region_span = max(hot_min_span, int(
                            hot_region_bytes * uniform(0.1, 0.5)))
                        region_base = DATA_BASE + randrange(
                            0, hot_region_bytes, 8)
                    else:
                        region_span = max(cold_min_span, int(
                            working_set_bytes * uniform(0.2, 0.8)))
                        region_base = DATA_BASE + randrange(
                            0, working_set_bytes, 8)
                    stride = (access_stride if random_() < 0.8
                              else access_stride * choice((2, 4, 8)))
                    dest = choice(int_pool) if opclass is LOAD else None
                    slots.append(_StaticSlot(opclass, dest, (), region_base,
                                             region_span, stride))
                elif draw < fp_cut:
                    sub = random_()
                    if sub < fp_div_cut:
                        opclass = FP_DIV
                    elif sub < fp_mul_cut:
                        opclass = FP_MUL
                    else:
                        opclass = FP_ALU
                    slots.append(_StaticSlot(opclass, choice(fp_pool), ()))
                else:
                    opclass = (INT_MUL if random_() < int_mul_share
                               else INT_ALU)
                    slots.append(_StaticSlot(opclass, choice(int_pool), ()))
            # Sources: each draws from the last 16 destinations of its
            # register file in this block, at the profile's mean distance.
            recent_int: List[int] = []
            recent_fp: List[int] = []
            for slot in slots:
                opclass = slot.opclass
                is_fp = (opclass is FP_ALU or opclass is FP_MUL
                         or opclass is FP_DIV)
                if is_fp:
                    pool, fallback = recent_fp, fp_pool
                else:
                    pool, fallback = recent_int, int_pool
                sources: List[int] = []
                # a load reads its address base; a store its value + base
                for _ in range(1 if opclass is LOAD else 2):
                    if pool and random_() < 0.75:
                        distance = int(expovariate(exp_rate)) + 1
                        if distance > len(pool):
                            distance = len(pool)
                        sources.append(pool[-distance])
                    else:
                        sources.append(choice(fallback))
                slot.sources = tuple(sources)
                dest = slot.dest
                if dest is not None:
                    recent = recent_fp if is_fp else recent_int
                    recent.append(dest)
                    if len(recent) > 16:
                        del recent[0]
            terminator = self._make_terminator(block_index, num_blocks, rng)
            block = _StaticBlock(index=block_index, start_pc=pc, slots=slots,
                                 terminator=terminator)
            blocks.append(block)
            pc += block.length * INSTRUCTION_SIZE

    def _make_terminator(self, block_index: int, num_blocks: int,
                         rng: random.Random) -> _StaticBranch:
        profile = self.profile
        control_total = profile.branch_fraction + profile.jump_fraction
        is_jump = (control_total > 0 and
                   rng.random() < profile.jump_fraction / control_total)
        fallthrough = (block_index + 1) % num_blocks
        target = rng.randrange(num_blocks)
        if is_jump:
            return _StaticBranch(opclass=InstructionClass.JUMP, sources=(),
                                 taken_bias=1.0, target_block=target,
                                 fallthrough_block=fallthrough)
        if rng.random() < profile.strongly_biased_fraction:
            bias = profile.strong_bias if rng.random() < 0.7 else 1.0 - profile.strong_bias
        else:
            bias = profile.weak_bias if rng.random() < 0.5 else 1.0 - profile.weak_bias
        sources = (rng.choice(_INT_REG_POOL), rng.choice(_INT_REG_POOL))
        return _StaticBranch(opclass=InstructionClass.BRANCH, sources=sources,
                             taken_bias=bias, target_block=target,
                             fallthrough_block=fallthrough)

    # ------------------------------------------------------------ properties
    @property
    def blocks(self) -> Sequence[_StaticBlock]:
        """The generated static basic blocks."""
        return tuple(self._blocks)

    @property
    def static_instruction_count(self) -> int:
        """Total static instructions over all blocks."""
        return sum(block.length for block in self._blocks)

    # --------------------------------------------------------- dynamic trace
    def trace(self, num_instructions: int) -> ListTraceSource:
        """Generate a correct-path dynamic trace of ``num_instructions``."""
        if num_instructions <= 0:
            raise ValueError("num_instructions must be positive")
        rng = random.Random(self._rng.random())
        instructions: List[TraceInstruction] = []
        block_index = 0
        visit_counts = [0] * len(self._blocks)
        while len(instructions) < num_instructions:
            block = self._blocks[block_index]
            visit = visit_counts[block_index]
            visit_counts[block_index] += 1
            pc = block.start_pc
            for slot in block.slots:
                if len(instructions) >= num_instructions:
                    return ListTraceSource(instructions, name=self.profile.name)
                instructions.append(self._dynamic_from_slot(
                    slot, pc, len(instructions), visit))
                pc += INSTRUCTION_SIZE
            if len(instructions) >= num_instructions:
                break
            terminator = block.terminator
            if terminator is None:
                block_index = (block_index + 1) % len(self._blocks)
                continue
            taken = rng.random() < terminator.taken_bias
            next_block = (terminator.target_block if taken
                          else terminator.fallthrough_block)
            target_pc = self._blocks[terminator.target_block].start_pc
            instructions.append(TraceInstruction(
                index=len(instructions),
                pc=pc,
                opclass=terminator.opclass,
                dest=None,
                sources=terminator.sources,
                is_branch=terminator.opclass is InstructionClass.BRANCH,
                taken=taken if terminator.opclass is InstructionClass.BRANCH else True,
                target_pc=target_pc,
            ))
            block_index = next_block
        return ListTraceSource(instructions, name=self.profile.name)

    def _dynamic_from_slot(self, slot: _StaticSlot, pc: int, index: int,
                           visit: int) -> TraceInstruction:
        mem_address = None
        if slot.opclass.is_memory:
            offset = (visit * slot.stride) % max(slot.region_span, slot.stride)
            mem_address = slot.region_base + offset
        return TraceInstruction(
            index=index,
            pc=pc,
            opclass=slot.opclass,
            dest=slot.dest,
            sources=slot.sources,
            mem_address=mem_address,
        )

    # ------------------------------------------------------------ wrong path
    def wrong_path_instruction(self, pc: int, offset: int) -> TraceInstruction:
        """Produce one plausible wrong-path instruction at ``pc``.

        Wrong-path instructions are deterministic in shape (so runs are
        repeatable) and use the profile's integer mix; they consume fetch,
        decode, rename and issue resources until squashed, which is how the
        extra speculative work of the GALS machine (Figure 8) arises.
        """
        cache = self._wrong_path_cache
        key = (pc, offset)
        found = cache.get(key)
        if found is not None:
            return found
        classes = (InstructionClass.INT_ALU, InstructionClass.INT_ALU,
                   InstructionClass.LOAD, InstructionClass.INT_ALU)
        opclass = classes[offset % len(classes)]
        dest = _INT_REG_POOL[(offset * 7) % len(_INT_REG_POOL)]
        sources = (_INT_REG_POOL[(offset * 3) % len(_INT_REG_POOL)],)
        mem_address = (DATA_BASE + (offset * 64) % (self.profile.working_set_kb * 1024)
                       if opclass is InstructionClass.LOAD else None)
        instr = TraceInstruction(index=-1, pc=pc, opclass=opclass, dest=dest,
                                 sources=sources, mem_address=mem_address)
        if len(cache) >= 65536:
            cache.clear()
        cache[key] = instr
        return instr


def make_workload(name: str, seed: int = 1) -> SyntheticWorkload:
    """Create the synthetic workload for a named benchmark profile."""
    return SyntheticWorkload(get_profile(name), seed=seed)


def make_trace(name: str, num_instructions: int, seed: int = 1) -> ListTraceSource:
    """Convenience: named benchmark -> dynamic trace of the requested length."""
    return make_workload(name, seed=seed).trace(num_instructions)
