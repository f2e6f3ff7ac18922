"""Hand-written kernels in the small RISC ISA.

These kernels complement the profile-driven synthetic workloads: they are
*real programs* (assembled and functionally executed) whose dynamic traces can
be fed to the same timing models.  They are used by the example applications
and by integration tests that want end-to-end behaviour from source code to
power/performance numbers, the way the paper's infrastructure runs real
binaries.

Each kernel is parameterised by a problem size and returns both the assembled
:class:`~repro.isa.program.Program` and initial memory contents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..isa.assembler import assemble
from ..isa.executor import execute_program
from ..isa.program import Program
from ..isa.trace import ListTraceSource

#: Base addresses for the kernels' data arrays.
ARRAY_A = 0x1000_0000
ARRAY_B = 0x1004_0000
ARRAY_C = 0x1008_0000
WORD = 8


@dataclass
class Kernel:
    """A named, parameterised kernel."""

    name: str
    description: str
    builder: Callable[[int], Tuple[Program, Dict[int, float]]]

    def build(self, size: int) -> Tuple[Program, Dict[int, float]]:
        """Assemble the kernel at ``size``; returns (program, preloaded memory)."""
        return self.builder(size)

    def trace(self, size: int, max_instructions: int = 2_000_000,
              stop_after: Optional[int] = None) -> ListTraceSource:
        """Assemble, functionally execute, and return the dynamic trace
        (its first ``stop_after`` instructions, when given)."""
        program, memory = self.build(size)
        return execute_program(program, max_instructions=max_instructions,
                               initial_memory=memory, stop_after=stop_after)


# --------------------------------------------------------------------- kernels
def _vector_sum(size: int) -> Tuple[Program, Dict[int, float]]:
    """sum += a[i] over an integer array (memory + integer ALU bound)."""
    source = f"""
    main:
        li   r1, 0              # accumulator
        li   r2, 0              # i
        li   r3, {size}         # n
        li   r4, {ARRAY_A}      # base of a[]
    loop:
        lw   r5, 0(r4)
        add  r1, r1, r5
        addi r4, r4, {WORD}
        addi r2, r2, 1
        blt  r2, r3, loop
        halt
    """
    memory = {ARRAY_A + i * WORD: (i * 3 + 1) % 251 for i in range(size)}
    return assemble(source, name=f"vector_sum_{size}"), memory


def _dot_product(size: int) -> Tuple[Program, Dict[int, float]]:
    """Floating-point dot product (FP multiply-add chain, two streams)."""
    source = f"""
    main:
        li   r2, 0              # i
        li   r3, {size}         # n
        li   r4, {ARRAY_A}
        li   r5, {ARRAY_B}
        li   r6, 0
        cvtif f1, r6            # accumulator = 0.0
    loop:
        flw  f2, 0(r4)
        flw  f3, 0(r5)
        fmul f4, f2, f3
        fadd f1, f1, f4
        addi r4, r4, {WORD}
        addi r5, r5, {WORD}
        addi r2, r2, 1
        blt  r2, r3, loop
        fsw  f1, 0(r4)
        halt
    """
    memory = {}
    for i in range(size):
        memory[ARRAY_A + i * WORD] = 0.5 + 0.25 * (i % 7)
        memory[ARRAY_B + i * WORD] = 1.0 + 0.125 * (i % 5)
    return assemble(source, name=f"dot_product_{size}"), memory


def _saxpy(size: int) -> Tuple[Program, Dict[int, float]]:
    """y[i] = a * x[i] + y[i] (streaming FP with stores)."""
    source = f"""
    main:
        li   r2, 0
        li   r3, {size}
        li   r4, {ARRAY_A}      # x
        li   r5, {ARRAY_B}      # y
        li   r6, 3
        cvtif f1, r6            # a = 3.0
    loop:
        flw  f2, 0(r4)
        flw  f3, 0(r5)
        fmul f4, f1, f2
        fadd f5, f4, f3
        fsw  f5, 0(r5)
        addi r4, r4, {WORD}
        addi r5, r5, {WORD}
        addi r2, r2, 1
        blt  r2, r3, loop
        halt
    """
    memory = {}
    for i in range(size):
        memory[ARRAY_A + i * WORD] = float(i % 13)
        memory[ARRAY_B + i * WORD] = float(i % 9)
    return assemble(source, name=f"saxpy_{size}"), memory


def _matmul(size: int) -> Tuple[Program, Dict[int, float]]:
    """Dense size x size FP matrix multiply (nested loops, mixed int/FP)."""
    n = size
    source = f"""
    main:
        li   r10, 0             # i
        li   r13, {n}           # n
    iloop:
        li   r11, 0             # j
    jloop:
        li   r12, 0             # k
        li   r20, 0
        cvtif f1, r20           # acc = 0.0
    kloop:
        # address of a[i][k] = A + (i*n + k)*WORD
        mul  r14, r10, r13
        add  r14, r14, r12
        li   r15, {WORD}
        mul  r14, r14, r15
        li   r16, {ARRAY_A}
        add  r14, r14, r16
        flw  f2, 0(r14)
        # address of b[k][j] = B + (k*n + j)*WORD
        mul  r17, r12, r13
        add  r17, r17, r11
        mul  r17, r17, r15
        li   r18, {ARRAY_B}
        add  r17, r17, r18
        flw  f3, 0(r17)
        fmul f4, f2, f3
        fadd f1, f1, f4
        addi r12, r12, 1
        blt  r12, r13, kloop
        # c[i][j] = acc
        mul  r19, r10, r13
        add  r19, r19, r11
        mul  r19, r19, r15
        li   r21, {ARRAY_C}
        add  r19, r19, r21
        fsw  f1, 0(r19)
        addi r11, r11, 1
        blt  r11, r13, jloop
        addi r10, r10, 1
        blt  r10, r13, iloop
        halt
    """
    memory = {}
    for i in range(n):
        for j in range(n):
            memory[ARRAY_A + (i * n + j) * WORD] = float((i + j) % 5) * 0.5
            memory[ARRAY_B + (i * n + j) * WORD] = float((i * j) % 7) * 0.25
    return assemble(source, name=f"matmul_{n}x{n}"), memory


def _fibonacci(size: int) -> Tuple[Program, Dict[int, float]]:
    """Iterative Fibonacci (pure integer, branch-light, serial dependences)."""
    source = f"""
    main:
        li   r1, 0              # fib(0)
        li   r2, 1              # fib(1)
        li   r3, 0              # i
        li   r4, {size}
    loop:
        add  r5, r1, r2
        mov  r1, r2
        mov  r2, r5
        addi r3, r3, 1
        blt  r3, r4, loop
        li   r6, {ARRAY_C}
        sw   r2, 0(r6)
        halt
    """
    return assemble(source, name=f"fibonacci_{size}"), {}


def _string_search(size: int) -> Tuple[Program, Dict[int, float]]:
    """Count occurrences of a byte value in an array (data-dependent branches)."""
    source = f"""
    main:
        li   r1, 0              # count
        li   r2, 0              # i
        li   r3, {size}
        li   r4, {ARRAY_A}
        li   r5, 7              # needle
    loop:
        lw   r6, 0(r4)
        bne  r6, r5, skip
        addi r1, r1, 1
    skip:
        addi r4, r4, {WORD}
        addi r2, r2, 1
        blt  r2, r3, loop
        li   r7, {ARRAY_C}
        sw   r1, 0(r7)
        halt
    """
    memory = {ARRAY_A + i * WORD: (i * 5 + 3) % 11 for i in range(size)}
    return assemble(source, name=f"string_search_{size}"), memory


KERNELS: Dict[str, Kernel] = {
    "vector_sum": Kernel("vector_sum", "integer array reduction", _vector_sum),
    "dot_product": Kernel("dot_product", "floating-point dot product", _dot_product),
    "saxpy": Kernel("saxpy", "streaming FP saxpy with stores", _saxpy),
    "matmul": Kernel("matmul", "dense FP matrix multiply", _matmul),
    "fibonacci": Kernel("fibonacci", "serial integer recurrence", _fibonacci),
    "string_search": Kernel("string_search", "data-dependent branch kernel",
                            _string_search),
}


def get_kernel(name: str) -> Kernel:
    """Look up a kernel by name."""
    try:
        return KERNELS[name]
    except KeyError as exc:
        raise KeyError(f"unknown kernel {name!r}; known: {', '.join(sorted(KERNELS))}"
                       ) from exc


def kernel_trace(name: str, size: int) -> ListTraceSource:
    """Assemble, execute and return the dynamic trace of a named kernel."""
    return get_kernel(name).trace(size)
