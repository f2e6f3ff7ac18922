"""Unified execution configuration for scenario sweeps.

:class:`ExecutionConfig` is the single spelling of every execution knob the
sweep entry points used to take piecemeal (``store=``, ``jobs=``, implicit
pool behaviour): which :mod:`job backend
<repro.exec.backends>` runs the missing scenarios, how many workers it may
use, and which results store serves hits and receives freshly computed
results.  Every sweep entry point
(:func:`~repro.results.runner.run_cached`,
:func:`~repro.results.runner.resume_sweep`,
:func:`~repro.core.scenario.sweep_scenarios`,
:func:`~repro.core.experiments.run_design_space`) threads one of these
through; explicit ``store=``/``jobs=`` keywords are merged into it by
:func:`resolve_execution`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - the import-time dependency must stay
    from ..results.store import ResultsStore  # one-way: results -> exec

#: Sentinel distinguishing "argument not passed" from an explicit ``None``
#: (``store=None`` legitimately means "no store").
UNSET: Any = object()


@dataclass(frozen=True)
class ExecutionConfig:
    """How a sweep executes: backend, parallelism, store, retry policy.

    ``backend`` names a registered job backend (``serial``, ``local``,
    ...); ``jobs`` bounds its worker count (``None`` = ``REPRO_JOBS`` or
    the CPU count); ``store`` is anything
    :func:`~repro.results.store.resolve_store` accepts (``True`` = the
    default store, a path, a :class:`~repro.results.store.ResultsStore`,
    ``None``/``False`` = uncached).  ``max_retries`` bounds how often an
    *infrastructure* failure (``OSError``, a broken process pool) is
    retried with exponential backoff before the work is degraded or given
    up on -- deterministic simulation exceptions are never retried; they
    fail fast.  ``retry_backoff`` is the backoff base delay in seconds
    (attempt ``k`` waits ``retry_backoff * 2**(k-1)`` plus deterministic
    jitter).
    """

    backend: str = "local"
    jobs: Optional[int] = None
    store: Any = True
    max_retries: int = 3
    retry_backoff: float = 0.05

    def __post_init__(self) -> None:
        if self.jobs is not None and self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be non-negative")

    def resolve_store(self) -> Optional["ResultsStore"]:
        """This configuration's results store (``None`` when uncached)."""
        from ..results.store import resolve_store
        return resolve_store(self.store)


def resolve_execution(execution: Union[ExecutionConfig, str, None] = None,
                      store: Any = UNSET,
                      jobs: Optional[int] = None,
                      default_store: Any = True) -> ExecutionConfig:
    """Merge an execution config and explicit keyword overrides into one.

    ``execution`` may be a full :class:`ExecutionConfig`, a bare backend name
    (shorthand for ``ExecutionConfig(backend=name)``), or ``None`` for the
    defaults.  Explicitly passed ``store=``/``jobs=`` keywords override the
    corresponding ``execution`` fields, so callers can say
    ``resume_sweep(..., execution="serial", jobs=4)``.
    """
    if isinstance(execution, str):
        execution = ExecutionConfig(backend=execution, store=default_store)
    elif execution is None:
        execution = ExecutionConfig(store=default_store)
    if store is not UNSET:
        execution = replace(execution, store=store)
    if jobs is not None:
        execution = replace(execution, jobs=jobs)
    return execution
