"""Workload registry: named trace factories for the Scenario subsystem.

Three families of workloads exist and all are addressable by name:

* synthetic profile-driven workloads (:mod:`repro.workloads.synthetic`),
  registered under their benchmark profile name ("perl", "gcc", ...),
* hand-written kernels (:mod:`repro.workloads.kernels`), assembled and
  functionally executed to a real dynamic trace, registered as
  ``kernel:<name>`` ("kernel:dot_product", ...), and
* phase-structured mixes (:mod:`repro.workloads.phased`) that change regime
  mid-run, registered as ``phased:<mix>`` ("phased:intfp-osc", ...).

The registry is what makes scenarios declarative: a scenario stores only the
workload *name* plus its sizing parameters, and :func:`build_workload` turns
that into a concrete trace (plus, for synthetic workloads, the workload
object whose wrong-path generator the fetch unit uses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..isa.trace import ListTraceSource
from .kernels import KERNELS
from .phased import PhasedWorkload
from .profiles import PROFILES, WORKLOAD_MIXES
from .synthetic import SyntheticWorkload, make_workload

WORKLOAD_SYNTHETIC = "synthetic"
WORKLOAD_KERNEL = "kernel"
WORKLOAD_PHASED = "phased"

#: Prefix marking kernel workload names in the registry.
KERNEL_PREFIX = "kernel:"

#: Prefix marking phased-mix workload names in the registry.
PHASED_PREFIX = "phased:"


@dataclass(frozen=True)
class WorkloadEntry:
    """One named workload: how to build its trace."""

    name: str
    kind: str            # WORKLOAD_SYNTHETIC, WORKLOAD_KERNEL or WORKLOAD_PHASED
    description: str
    #: (num_instructions, seed, kernel_size) -> (trace, workload object or None)
    factory: Callable[[int, int, int],
                      Tuple[ListTraceSource, Optional[SyntheticWorkload]]]


def _synthetic_factory(name: str):
    def build(num_instructions: int, seed: int, kernel_size: int
              ) -> Tuple[ListTraceSource, Optional[SyntheticWorkload]]:
        workload = make_workload(name, seed=seed)
        return workload.trace(num_instructions), workload
    return build


def _kernel_factory(name: str):
    def build(num_instructions: int, seed: int, kernel_size: int
              ) -> Tuple[ListTraceSource, Optional[SyntheticWorkload]]:
        # Kernels are deterministic programs: the seed does not apply, the
        # problem size does, and num_instructions caps the dynamic trace.
        # The functional run stops at the cap -- a cap shorter than the
        # program's natural length must shorten the run, not abort it, even
        # for a problem size whose full run exceeds the functional limit.
        return KERNELS[name].trace(kernel_size,
                                   stop_after=num_instructions), None
    return build


def _phased_factory(name: str):
    def build(num_instructions: int, seed: int, kernel_size: int
              ) -> Tuple[ListTraceSource, Optional[SyntheticWorkload]]:
        workload = PhasedWorkload(WORKLOAD_MIXES[name], seed=seed,
                                  kernel_size=kernel_size)
        trace = workload.trace(num_instructions)
        # The fetch unit only needs a wrong-path generator; hand it the
        # phased workload's (deterministic) delegate so phased runs squash
        # speculative work just like stationary synthetic runs.
        return trace, workload.wrong_path_source()
    return build


WORKLOADS: Dict[str, WorkloadEntry] = {}

for _name, _profile in PROFILES.items():
    WORKLOADS[_name] = WorkloadEntry(
        name=_name, kind=WORKLOAD_SYNTHETIC,
        description=_profile.description,
        factory=_synthetic_factory(_name))

for _name, _kernel in KERNELS.items():
    WORKLOADS[KERNEL_PREFIX + _name] = WorkloadEntry(
        name=KERNEL_PREFIX + _name, kind=WORKLOAD_KERNEL,
        description=_kernel.description,
        factory=_kernel_factory(_name))

# Registered at import time so spawn-pool sweep workers see the same names.
for _name, _mix in WORKLOAD_MIXES.items():
    WORKLOADS[PHASED_PREFIX + _name] = WorkloadEntry(
        name=PHASED_PREFIX + _name, kind=WORKLOAD_PHASED,
        description=_mix.description,
        factory=_phased_factory(_name))


#: Materialised-workload memo: :func:`workload_key` -> (instruction tuple,
#: trace name, workload-or-None, shared warm-plan cache).  Trace
#: synthesis is deterministic and its records are immutable once built, so
#: repeated runs of the same workload (benchmark repeats, sweeps fanning one
#: workload over many topologies/policies) share one materialisation; every
#: hit still gets a *fresh* ListTraceSource, because the source carries the
#: fetch unit's consume position, but the source shares the memoized tuple
#: instead of copying it.
_MEMO: Dict[Tuple[str, int, Optional[int], int], tuple] = {}
_MEMO_LIMIT = 64


def get_workload_entry(name: str) -> WorkloadEntry:
    """Look up a registered workload by name."""
    try:
        return WORKLOADS[name]
    except KeyError as exc:
        raise KeyError(f"unknown workload {name!r}; known: "
                       f"{', '.join(sorted(WORKLOADS))}") from exc


def available_workloads() -> Tuple[str, ...]:
    """Registered workload names, sorted for stable CLI/doc output."""
    return tuple(sorted(WORKLOADS))


def workload_key(name: str, num_instructions: int, seed: int,
                 kernel_size: int) -> Tuple[str, int, Optional[int], int]:
    """What one materialisation depends on: kernels ignore the seed."""
    entry = WORKLOADS.get(name)
    if entry is not None and entry.kind == WORKLOAD_KERNEL:
        return (name, num_instructions, None, kernel_size)
    return (name, num_instructions, seed, kernel_size)


def build_workload(name: str, num_instructions: int, seed: int = 1,
                   kernel_size: int = 64
                   ) -> Tuple[ListTraceSource, Optional[SyntheticWorkload]]:
    """Materialize a registered workload into (trace, workload-or-None).

    Results are memoized per process: the (deterministic) synthesis runs once
    per distinct :func:`workload_key` and later calls reuse the instruction
    records behind a fresh trace source.
    """
    key = workload_key(name, num_instructions, seed, kernel_size)
    memo = _MEMO.get(key)
    if memo is None:
        trace, workload = get_workload_entry(name).factory(
            num_instructions, seed, kernel_size)
        if len(_MEMO) >= _MEMO_LIMIT:
            _MEMO.clear()
        memo = (trace._instructions, trace.name, workload, trace._warm_plans)
        _MEMO[key] = memo
        return trace, workload
    instructions, trace_name, workload, warm_plans = memo
    trace = ListTraceSource(instructions, name=trace_name)
    # cache warming derives a replay plan from the instruction records;
    # share it across copies of the same materialised trace
    trace._warm_plans = warm_plans
    return trace, workload
