"""Cache-aware scenario execution: memoized runs and resumable sweeps.

:func:`resume_sweep` is the sweep engine behind ``repro sweep --cache`` and
``repro report compare``: scenarios already in the store load from disk, only
the missing ones fan out over a pluggable :class:`~repro.exec.JobBackend`
(the warm-started local process pool by default; ``serial`` is one
:class:`~repro.exec.ExecutionConfig` away), and every freshly computed
result is stored immediately -- so an interrupted sweep resumes where it
stopped, and a repeated sweep is served entirely from cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from ..core.scenario import (Scenario, ScenarioResult, resolve_scenarios,
                             workload_specs)
from ..exec import (ExecutionConfig, UNSET, make_job_backend,
                    resolve_execution, timed_run_scenario)
from .store import ResultsStore, resolve_store

__all__ = ["SweepRun", "hit_rate", "resume_sweep", "run_cached",
           "timed_run_scenario"]


@dataclass
class SweepRun:
    """One sweep slot: the result plus where it came from.

    ``seconds`` is the simulation wall time for computed slots and the time
    the original (stored) computation took for cached ones -- so a hit's
    entry shows what the cache saved, not the microseconds the load took.
    """

    outcome: ScenarioResult
    cached: bool
    key: str
    seconds: float

    @property
    def status(self) -> str:
        """'cached' when the result was served from the store, else 'computed'."""
        return "cached" if self.cached else "computed"


def run_cached(scenario: Union[Scenario, str],
               store: Union[bool, str, ResultsStore, None] = True,
               **overrides) -> SweepRun:
    """Run one scenario through the store (compute-and-store on a miss).

    ``store`` accepts everything :func:`~repro.results.store.resolve_store`
    does and defaults to the default store.
    """
    (scenario,) = resolve_scenarios([scenario], overrides)
    resolved_store = resolve_store(store)
    if resolved_store is not None:
        hit = resolved_store.get_with_seconds(scenario)
        if hit is not None:
            return SweepRun(outcome=hit[0], cached=True,
                            key=resolved_store.key_for(scenario),
                            seconds=hit[1])
    outcome, seconds = timed_run_scenario(scenario)
    key = ""
    if resolved_store is not None:
        key = resolved_store.put(outcome, wall_seconds=seconds)
    return SweepRun(outcome=outcome, cached=False, key=key, seconds=seconds)


def resume_sweep(scenarios: Sequence[Union[Scenario, str]],
                 store: Union[bool, str, ResultsStore, None] = UNSET,
                 jobs: Optional[int] = None,
                 execution: Union[ExecutionConfig, str, None] = None,
                 **overrides) -> List[SweepRun]:
    """Sweep many scenarios, loading hits from the store, computing misses.

    Results come back in submission order either way, and computed slots are
    bit-identical to per-scenario :func:`run_scenario` calls (every backend
    funnels through it).  With ``store=None`` every slot
    is computed -- the per-scenario timing/status bookkeeping still applies,
    which is what the CLI prints for uncached sweeps.

    ``execution`` selects the job backend (an :class:`ExecutionConfig` or a
    bare backend name: ``"serial"``, ``"local"``);
    explicit ``store=``/``jobs=`` keywords override the corresponding
    config fields.
    """
    resolved = resolve_scenarios(scenarios, overrides)
    config = resolve_execution(execution, store=store, jobs=jobs,
                               default_store=True)
    resolved_store = config.resolve_store()

    slots: List[Optional[SweepRun]] = [None] * len(resolved)
    missing: List[Tuple[int, Scenario]] = []
    for index, scenario in enumerate(resolved):
        if resolved_store is not None:
            hit = resolved_store.get_with_seconds(scenario)
            if hit is not None:
                slots[index] = SweepRun(
                    outcome=hit[0], cached=True,
                    key=resolved_store.key_for(scenario),
                    seconds=hit[1])
                continue
        missing.append((index, scenario))

    if missing:
        _compute_and_store(missing, slots, resolved_store, config)

    return [slot for slot in slots if slot is not None]


def _compute_and_store(missing: Sequence[Tuple[int, Scenario]],
                       slots: List[Optional[SweepRun]],
                       store: Optional[ResultsStore],
                       execution: ExecutionConfig) -> None:
    """Compute the missing slots, persisting each result *as it completes*.

    Storing per-completion (not after the whole backend drains) is what
    makes an interrupted sweep resumable: killing the process loses at most
    the runs still in flight, and the re-run picks up every finished one
    from the store.  Exceptions raised by a scenario itself propagate
    unchanged (the backend contract); only pool-infrastructure failures and
    worker-side registry misses are retried in-process by the backends.
    """
    backend = make_job_backend(execution, store)
    scenarios = [scenario for _, scenario in missing]
    try:
        if execution.warm_start:
            backend.warm(workload_specs(scenarios))
        handles = backend.submit(scenarios)
        remaining = len(handles)
        while remaining:
            completed = backend.poll()
            if not completed and not any(
                    not handle.done for handle in handles):
                break  # defensive: backend reports nothing left pending
            for handle in completed:
                index = missing[handle.index][0]
                key = ""
                if store is not None:
                    key = store.put(handle.outcome,
                                    wall_seconds=handle.seconds)
                slots[index] = SweepRun(outcome=handle.outcome, cached=False,
                                        key=key, seconds=handle.seconds)
                remaining -= 1
    finally:
        backend.cancel()


def hit_rate(runs: Sequence[SweepRun]) -> float:
    """Fraction of sweep slots served from the store."""
    if not runs:
        return 0.0
    return sum(run.cached for run in runs) / len(runs)
