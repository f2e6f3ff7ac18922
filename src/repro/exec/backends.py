"""Pluggable job backends: the execution fabric behind scenario sweeps.

A :class:`JobBackend` turns a list of missing scenarios into completed
:class:`JobHandle` objects; :func:`~repro.results.runner.resume_sweep` (and
everything layered on it, up to the ``repro serve`` results service) only
talks to this protocol, so the execution fabric is swappable per call:

* ``serial`` -- one scenario at a time, in-process (no pool, no forking;
  deterministic and debugger-friendly);
* ``local`` -- the warm-started :class:`~concurrent.futures.ProcessPoolExecutor`
  fan-out (the default, and the only process pool in the package).

Several sweep processes -- on one host or on hosts sharing a filesystem --
may point at one results store: entries are published atomically and two
writers of one key store the same result, so the worst a race costs is a
cell computed twice.

Backends register by name in :data:`JOB_BACKENDS` (shown by ``repro list
backends``) so new fabrics -- a cluster scheduler, an rsh/ssh fan-out in the
style of instrumentation-infra's ``prun`` -- plug in without touching the
sweep code.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Tuple, Union)

from ..core.controllers import CONTROLLERS
from ..core.domains import TOPOLOGIES
from ..core.dvfs import POLICIES
from ..core.scenario import (Scenario, ScenarioResult, WorkloadSpec,
                             default_jobs, run_scenario, warm_worker)
from ..workloads.registry import WORKLOADS
from .config import ExecutionConfig
from .faults import inject, set_role

if TYPE_CHECKING:  # pragma: no cover - the import-time dependency must stay
    from ..results.store import ResultsStore  # one-way: results -> exec


def timed_run_scenario(scenario: Scenario) -> Tuple[ScenarioResult, float]:
    """Top-level (picklable) run returning (outcome, wall seconds).

    Fault site ``pool.run``: a plan rule with ``role="worker"`` fires only
    inside local-pool workers (see :func:`_start_pool_worker`), so chaos
    runs can kill a worker mid-job without touching the parent.
    """
    inject("pool.run")
    start = time.perf_counter()
    outcome = run_scenario(scenario)
    return outcome, time.perf_counter() - start


# ------------------------------------------------------ failure classification
#: Exception types that indicate the *fabric* failed, not the simulation.
INFRASTRUCTURE_ERRORS = (OSError, BrokenProcessPool)


def is_infrastructure_error(exc: BaseException) -> bool:
    """True when ``exc`` is an infrastructure failure worth retrying.

    Infrastructure failures -- ``OSError`` (filesystem hiccups, torn reads,
    spawn failures) and a :class:`BrokenProcessPool` -- are transient shapes:
    the same scenario may well succeed on the next attempt, so the fabric
    retries them with backoff.  Everything else is a *deterministic*
    simulation exception: retrying would fail identically, so those fail
    fast.
    """
    return isinstance(exc, INFRASTRUCTURE_ERRORS)


def retry_delay(backoff: float, attempt: int, token: str) -> float:
    """Exponential backoff with deterministic per-(token, attempt) jitter.

    Attempt ``k`` (1-based) waits ``backoff * 2**(k-1)`` plus a jitter drawn
    from ``random.Random(f"{token}:{k}")`` -- deterministic so chaos runs
    replay identically, jittered so processes retrying against one shared
    store do not stampede it in lockstep.  Capped at 5 seconds.
    """
    import random
    base = backoff * (2 ** max(attempt - 1, 0))
    jitter = random.Random(f"{token}:{attempt}").uniform(0.0, backoff)
    return min(base + jitter, 5.0)


# ------------------------------------------------------------------- handles
@dataclass
class JobHandle:
    """One submitted scenario's lifecycle under a job backend.

    ``index`` is the scenario's position in the ``submit()`` call.
    """

    index: int
    scenario: Scenario
    done: bool = False
    outcome: Optional[ScenarioResult] = None
    seconds: float = 0.0

    def complete(self, outcome: ScenarioResult,
                 seconds: float) -> "JobHandle":
        """Mark this handle finished with its outcome; returns itself."""
        self.outcome = outcome
        self.seconds = seconds
        self.done = True
        return self


class JobBackend:
    """Protocol of a sweep execution fabric (duck-typed base class).

    The contract: ``warm(specs)`` may pre-build workloads, ``submit(
    scenarios)`` returns one :class:`JobHandle` per scenario, repeated
    ``poll()`` calls each return at least one newly completed handle while
    any job is pending (blocking as needed) and ``[]`` once none are, and
    ``cancel()`` abandons outstanding work and releases resources (always
    called, including after errors).  Scenario execution funnels through
    :func:`~repro.core.scenario.run_scenario`, so every backend produces
    bit-identical results for the same scenario.
    """

    #: registry name (overridden per implementation)
    name = "abstract"

    def warm(self, specs: Sequence[WorkloadSpec]) -> None:
        """Pre-build the sweep's workloads (default: in this process)."""
        warm_worker(specs)

    def submit(self, scenarios: Sequence[Scenario]) -> List[JobHandle]:
        """Queue the scenarios; returns their handles in submission order."""
        raise NotImplementedError

    def poll(self) -> List[JobHandle]:
        """Newly completed handles; ``[]`` only when nothing is pending."""
        raise NotImplementedError

    def cancel(self) -> None:
        """Abandon outstanding jobs and release backend resources."""


# ------------------------------------------------------------- serial backend
class SerialBackend(JobBackend):
    """Run scenarios one at a time in the calling process.

    No pool, no forking: the backend for restricted sandboxes, debugging
    (breakpoints work) and the results service's low-footprint drain mode.
    """

    name = "serial"

    def __init__(self, config: ExecutionConfig,
                 store: Optional[ResultsStore] = None) -> None:
        self.config = config
        self.store = store
        self._queue: List[JobHandle] = []

    def submit(self, scenarios: Sequence[Scenario]) -> List[JobHandle]:
        """Queue the scenarios for one-at-a-time execution."""
        handles = [JobHandle(index, scenario)
                   for index, scenario in enumerate(scenarios)]
        self._queue = list(handles)
        return handles

    def poll(self) -> List[JobHandle]:
        """Run the next queued scenario and return its completed handle."""
        if not self._queue:
            return []
        handle = self._queue.pop(0)
        return [handle.complete(*timed_run_scenario(handle.scenario))]

    def cancel(self) -> None:
        """Drop every queued (not yet started) scenario."""
        self._queue.clear()


# --------------------------------------------------------- local pool backend
class LocalPoolBackend(JobBackend):
    """Warm-started ``ProcessPoolExecutor`` fan-out (the default backend).

    One worker per job up to ``jobs``/``REPRO_JOBS``/CPU count, workers
    warm-started via the pool initializer, and graceful degradation to in-process execution when
    the pool infrastructure is unavailable (sandboxes without fork/sem
    support) or dies mid-sweep.  Real worker exceptions -- a scenario that
    raises -- propagate unchanged; only *pool-infrastructure* failures and
    spawn-worker registry misses divert jobs to the in-process fallback.
    """

    name = "local"

    def __init__(self, config: ExecutionConfig,
                 store: Optional[ResultsStore] = None) -> None:
        self.config = config
        self.store = store
        self._handles: List[JobHandle] = []
        self._futures: Dict[object, JobHandle] = {}
        self._executor: Optional[ProcessPoolExecutor] = None
        self._serial: List[JobHandle] = []
        self._specs: Tuple[WorkloadSpec, ...] = ()
        self._rebuilds = 0

    def warm(self, specs: Sequence[WorkloadSpec]) -> None:
        """Warm the parent's workload memo and remember the specs for workers."""
        self._specs = tuple(specs)
        warm_worker(self._specs)

    def submit(self, scenarios: Sequence[Scenario]) -> List[JobHandle]:
        """Fan the scenarios out over the pool (or queue them in-process)."""
        self._handles = [JobHandle(index, scenario)
                         for index, scenario in enumerate(scenarios)]
        jobs = (self.config.jobs if self.config.jobs is not None
                else default_jobs())
        workers = min(max(1, jobs), len(self._handles))
        if workers > 1:
            # Pool infrastructure failure (sandboxes without fork/sem
            # support): the parent can still run everything itself.
            self._start_pool(self._handles)
        if self._executor is None:
            self._serial = list(self._handles)
        return list(self._handles)

    def _start_pool(self, handles: Sequence[JobHandle]) -> bool:
        """Build the executor and submit ``handles``; False on infra failure."""
        jobs = (self.config.jobs if self.config.jobs is not None
                else default_jobs())
        workers = min(max(1, jobs), max(len(handles), 1))
        try:
            self._executor = ProcessPoolExecutor(
                max_workers=workers, initializer=_start_pool_worker,
                initargs=(self._specs,))
            self._futures = {
                self._executor.submit(timed_run_scenario, handle.scenario):
                handle for handle in handles}
            return True
        except (OSError, PermissionError):
            self._futures.clear()
            self._teardown_pool()
            return False

    def poll(self) -> List[JobHandle]:
        """Wait for pool completions (or run one in-process fallback job)."""
        completed: List[JobHandle] = []
        if self._futures:
            done, _ = wait(list(self._futures), return_when=FIRST_COMPLETED)
            for future in done:
                handle = self._futures.pop(future)
                try:
                    outcome, seconds = future.result()
                except (OSError, PermissionError, BrokenProcessPool):
                    # The pool died mid-sweep -- an infrastructure failure:
                    # rebuild it (with backoff) up to max_retries times before
                    # degrading this job and every still-queued one to the
                    # in-process fallback.
                    pending = [handle] + list(self._futures.values())
                    pending.sort(key=lambda item: item.index)
                    self._futures.clear()
                    self._teardown_pool()
                    self._rebuilds += 1
                    if self._rebuilds <= self.config.max_retries:
                        time.sleep(retry_delay(self.config.retry_backoff,
                                               self._rebuilds, "local-pool"))
                        if self._start_pool(pending):
                            break
                    self._serial.extend(pending)
                    self._serial.sort(key=lambda item: item.index)
                    break
                except KeyError:
                    # A spawn/forkserver worker re-imported the package with
                    # fresh registries and could not resolve a name that was
                    # registered at runtime in the parent.  Only that exact
                    # shape is retried in-process; a KeyError the parent
                    # cannot explain either is a real bug and surfaces.
                    if not _parent_can_resolve(handle.scenario):
                        raise
                    self._serial.append(handle)
                    continue
                completed.append(handle.complete(outcome, seconds))
            if completed:
                return completed
        if self._serial:
            handle = self._serial.pop(0)
            return [handle.complete(*timed_run_scenario(handle.scenario))]
        return completed

    def cancel(self) -> None:
        """Cancel queued pool futures and shut the executor down."""
        for future in self._futures:
            future.cancel()
        self._futures.clear()
        self._serial.clear()
        self._teardown_pool()

    def _teardown_pool(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None


def _start_pool_worker(specs: Sequence[WorkloadSpec]) -> None:
    """Pool initializer: declare the fault role ``worker``, then warm up."""
    set_role("worker")
    warm_worker(specs)


def _parent_can_resolve(scenario: Scenario) -> bool:
    """True when every registry name the scenario uses resolves here.

    Distinguishes a worker-side registry miss (runtime registration the
    worker's re-imported registries lack -- retry in the parent) from a
    genuinely unknown name or a simulation-bug ``KeyError`` (surface it).
    """
    return (scenario.topology in TOPOLOGIES
            and scenario.workload in WORKLOADS
            and (scenario.policy is None or scenario.policy in POLICIES)
            and (scenario.controller is None
                 or scenario.controller in CONTROLLERS))


# ------------------------------------------------------------------- registry
@dataclass(frozen=True)
class JobBackendInfo:
    """Registry entry: backend name, factory and one-line description."""

    name: str
    factory: Callable[[ExecutionConfig, Optional[ResultsStore]], JobBackend]
    description: str


JOB_BACKENDS: Dict[str, JobBackendInfo] = {}


def register_job_backend(name: str,
                         factory: Callable[..., JobBackend],
                         description: str = "") -> None:
    """Register a job backend factory under ``name``.

    The factory is called as ``factory(config, store)`` with the resolved
    :class:`ExecutionConfig` and the sweep's results store (or ``None``).
    """
    if name in JOB_BACKENDS:
        raise ValueError(f"job backend {name!r} already registered")
    JOB_BACKENDS[name] = JobBackendInfo(name=name, factory=factory,
                                        description=description)


def available_job_backends() -> Tuple[str, ...]:
    """Registered job backend names, in registration order."""
    return tuple(JOB_BACKENDS)


def make_job_backend(execution: Union[ExecutionConfig, str],
                     store: Optional[ResultsStore] = None) -> JobBackend:
    """Instantiate the job backend an execution config (or name) selects."""
    if isinstance(execution, str):
        execution = ExecutionConfig(backend=execution)
    try:
        info = JOB_BACKENDS[execution.backend]
    except KeyError as exc:
        raise KeyError(f"unknown job backend {execution.backend!r}; known: "
                       f"{', '.join(sorted(JOB_BACKENDS))}") from exc
    return info.factory(execution, store)


register_job_backend(
    "serial", SerialBackend,
    "one scenario at a time, in-process (no pool; sandbox/debug-friendly)")
register_job_backend(
    "local", LocalPoolBackend,
    "warm-started ProcessPoolExecutor fan-out on this machine (default)")
