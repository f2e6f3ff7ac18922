"""Tests for the pluggable job-backend subsystem (:mod:`repro.exec`).

Covers the backend registry, the :class:`ExecutionConfig` merge semantics
(explicit keywords over config fields), bit-identity of every
backend against the serial reference, the narrowed exception contract
(real worker exceptions surface; only pool-infrastructure failures fall
back), and the store-coordinated ``subprocess`` fabric end to end.
"""

from dataclasses import replace

import pytest

from repro.core.scenario import get_scenario, sweep_scenarios
from repro.exec import (JOB_BACKENDS, ExecutionConfig, JobHandle,
                        LocalPoolBackend, SerialBackend,
                        available_job_backends, make_job_backend,
                        register_job_backend, resolve_execution)
from repro.results import ResultsStore, resume_sweep
from repro.workloads.registry import (WORKLOAD_SYNTHETIC, WORKLOADS,
                                      WorkloadEntry)

SMALL = 150

#: Six registered scenarios for the multi-worker sweep acceptance test.
SWEEP_SCENARIOS = ["base", "gals5", "frontback2", "fem3", "alu4", "memsplit2"]


@pytest.fixture
def store(tmp_path):
    return ResultsStore(root=tmp_path / "cache")


# ------------------------------------------------------------------- registry
def test_builtin_backends_are_registered():
    assert available_job_backends() == ("serial", "local", "subprocess")
    for info in JOB_BACKENDS.values():
        assert info.description


def test_register_duplicate_backend_rejected():
    with pytest.raises(ValueError, match="already registered"):
        register_job_backend("serial", SerialBackend)


def test_make_job_backend_unknown_name():
    with pytest.raises(KeyError, match="unknown job backend"):
        make_job_backend("no-such-fabric")


def test_make_job_backend_accepts_names_and_configs(store):
    assert isinstance(make_job_backend("serial"), SerialBackend)
    backend = make_job_backend(ExecutionConfig(backend="local", jobs=2), store)
    assert isinstance(backend, LocalPoolBackend)
    assert backend.store is store


def test_custom_backend_registration(monkeypatch, store):
    monkeypatch.delitem(JOB_BACKENDS, "custom", raising=False)

    class Recording(SerialBackend):
        name = "custom"

    register_job_backend("custom", Recording, "test fabric")
    try:
        runs = resume_sweep(["base"], store=store, execution="custom",
                            num_instructions=SMALL)
        assert len(runs) == 1 and not runs[0].cached
    finally:
        JOB_BACKENDS.pop("custom", None)


# ----------------------------------------------------------- config semantics
def test_execution_config_validation():
    with pytest.raises(ValueError, match="jobs"):
        ExecutionConfig(jobs=0)
    with pytest.raises(ValueError, match="poll_interval"):
        ExecutionConfig(poll_interval=0)


def test_resolve_execution_defaults_and_overrides(store):
    config = resolve_execution()
    assert config.backend == "local" and config.store is True

    config = resolve_execution("subprocess", jobs=3, store=store)
    assert config.backend == "subprocess"
    assert config.jobs == 3 and config.store is store

    # explicit keywords override the ExecutionConfig's fields
    base = ExecutionConfig(backend="serial", jobs=1, store=None)
    merged = resolve_execution(base, store=store, jobs=4)
    assert merged.backend == "serial"
    assert merged.store is store and merged.jobs == 4
    # the original config is untouched (frozen dataclass + replace)
    assert base.jobs == 1 and base.store is None


# --------------------------------------------------------------- bit-identity
def test_all_backends_bit_identical_to_uncached_sweep(tmp_path):
    names = ["base", "gals5"]
    reference = sweep_scenarios(names, jobs=1, num_instructions=SMALL)
    for backend in ("serial", "local", "subprocess"):
        store = ResultsStore(root=tmp_path / backend)
        runs = resume_sweep(names, store=store, jobs=2, execution=backend,
                            num_instructions=SMALL)
        assert [run.outcome.to_json() for run in runs] \
            == [outcome.to_json() for outcome in reference], backend


def test_local_backend_pool_failure_falls_back_in_process(store, monkeypatch):
    """Pool-infrastructure failure degrades to in-process execution."""
    import repro.exec.backends as backends

    def broken_pool(*args, **kwargs):
        raise OSError("no fork for you")

    monkeypatch.setattr(backends, "ProcessPoolExecutor", broken_pool)
    runs = resume_sweep(["base", "gals5"], store=store, jobs=2,
                        num_instructions=SMALL)
    assert [run.status for run in runs] == ["computed", "computed"]
    assert store.get(replace(get_scenario("base"),
                             num_instructions=SMALL)) is not None


# --------------------------------------------------- narrowed worker failures
def _raising_factory(num_instructions, seed, kernel_size):
    raise ValueError("synthetic workload failure")


def test_real_worker_exception_surfaces_from_pool(store, monkeypatch):
    """A scenario that raises inside a pool worker propagates unchanged --
    the old blanket except swallowed it into a silent serial retry."""
    monkeypatch.setitem(WORKLOADS, "raising", WorkloadEntry(
        name="raising", kind=WORKLOAD_SYNTHETIC, description="always raises",
        factory=_raising_factory))
    bad = replace(get_scenario("base"), workload="raising",
                  num_instructions=SMALL)
    config = ExecutionConfig(backend="local", jobs=2, store=store,
                             warm_start=False)
    with pytest.raises(ValueError, match="synthetic workload failure"):
        resume_sweep([bad, "gals5"], execution=config,
                     num_instructions=SMALL)


def test_unknown_registry_name_surfaces_as_keyerror(store):
    """A name nobody can resolve is a real error, not a fallback case."""
    bad = replace(get_scenario("base"), workload="no-such-workload",
                  num_instructions=SMALL)
    config = ExecutionConfig(backend="local", jobs=2, store=store,
                             warm_start=False)
    with pytest.raises(KeyError, match="no-such-workload"):
        resume_sweep([bad], execution=config)


def test_parent_can_resolve_distinguishes_registry_misses(monkeypatch):
    from repro.exec.backends import _parent_can_resolve
    known = replace(get_scenario("base"), num_instructions=SMALL)
    assert _parent_can_resolve(known)
    assert not _parent_can_resolve(replace(known, workload="no-such"))
    monkeypatch.setitem(WORKLOADS, "runtime-only", WorkloadEntry(
        name="runtime-only", kind=WORKLOAD_SYNTHETIC, description="",
        factory=_raising_factory))
    assert _parent_can_resolve(replace(known, workload="runtime-only"))


# ----------------------------------------------------------- serial mechanics
def test_serial_backend_poll_and_cancel():
    backend = SerialBackend(ExecutionConfig(backend="serial"))
    scenarios = [replace(get_scenario("base"), num_instructions=SMALL),
                 replace(get_scenario("gals5"), num_instructions=SMALL)]
    handles = backend.submit(scenarios)
    assert [handle.index for handle in handles] == [0, 1]
    first = backend.poll()
    assert len(first) == 1 and first[0].done and first[0].outcome is not None
    backend.cancel()
    assert backend.poll() == []


def test_job_handle_complete_round_trip():
    scenario = replace(get_scenario("base"), num_instructions=SMALL)
    handle = JobHandle(index=0, scenario=scenario)
    assert not handle.done
    from repro.exec import timed_run_scenario
    outcome, seconds = timed_run_scenario(scenario)
    assert handle.complete(outcome, seconds, stored_key="abc") is handle
    assert handle.done and handle.stored_key == "abc"
    assert handle.seconds == seconds


# -------------------------------------------------------- subprocess backend
def test_subprocess_backend_requires_store():
    with pytest.raises(ValueError, match="requires a results store"):
        make_job_backend("subprocess", store=None)


def test_subprocess_sweep_two_workers_serves_all_from_shared_store(store):
    """Acceptance: a two-worker subprocess sweep of six scenarios completes
    with every result published to (and afterwards served from) the shared
    store, and leaves no queue/claim residue behind."""
    from repro.exec.worker import pending_jobs

    runs = resume_sweep(SWEEP_SCENARIOS, store=store, jobs=2,
                        execution="subprocess", num_instructions=SMALL)
    assert [run.status for run in runs] == ["computed"] * len(SWEEP_SCENARIOS)
    again = resume_sweep(SWEEP_SCENARIOS, store=store, jobs=1,
                         num_instructions=SMALL)
    assert all(run.cached for run in again)
    assert pending_jobs(store) == []
    assert not list(store.claims_dir.glob("*.claim")) \
        if store.claims_dir.is_dir() else True


def test_subprocess_parent_fallback_for_runtime_registrations(store,
                                                              monkeypatch):
    """A workload only the parent knows: workers record a failure marker and
    exit, the parent computes in-process -- the sweep still completes."""
    from repro.workloads.registry import _synthetic_factory

    monkeypatch.setitem(WORKLOADS, "runtime-perl", WorkloadEntry(
        name="runtime-perl", kind=WORKLOAD_SYNTHETIC,
        description="registered after worker launch",
        factory=_synthetic_factory("perl")))
    scenario = replace(get_scenario("base"), workload="runtime-perl",
                       num_instructions=SMALL)
    runs = resume_sweep([scenario], store=store, jobs=1,
                        execution="subprocess")
    assert len(runs) == 1 and not runs[0].cached
    assert store.get(scenario) is not None


# ------------------------------------------------------- worker queue plumbing
def test_worker_queue_round_trip(store):
    from repro.exec import worker

    scenario = replace(get_scenario("base"), num_instructions=SMALL)
    key = worker.enqueue_job(store, scenario)
    assert key == store.key_for(scenario)
    assert [path.stem for path in worker.pending_jobs(store)] == [key]
    # a worker drains the queue and publishes into the store
    processed = worker.drain(store, poll_interval=0.01, exit_when_idle=True)
    assert processed == 1
    assert worker.pending_jobs(store) == []
    assert store.get(scenario) is not None
    # draining an empty queue is a clean no-op
    assert worker.drain(store, poll_interval=0.01, exit_when_idle=True) == 0


def test_worker_records_failure_marker(store, monkeypatch):
    from repro.exec import worker

    monkeypatch.setitem(WORKLOADS, "raising", WorkloadEntry(
        name="raising", kind=WORKLOAD_SYNTHETIC, description="always raises",
        factory=_raising_factory))
    scenario = replace(get_scenario("base"), workload="raising",
                       num_instructions=SMALL)
    key = worker.enqueue_job(store, scenario)
    assert worker.run_one(store)
    assert worker.pending_jobs(store) == []
    marker = worker.error_path(store, key)
    assert marker.exists()
    assert "synthetic workload failure" in marker.read_text()
    # re-submitting the job clears the stale failure marker
    worker.enqueue_job(store, scenario)
    assert not marker.exists()


def test_worker_skips_claimed_jobs(store):
    from repro.exec import worker

    scenario = replace(get_scenario("base"), num_instructions=SMALL)
    key = worker.enqueue_job(store, scenario)
    assert store.try_claim(key, owner="someone-else")
    # the job is claimed by another worker: nothing to do this scan
    assert not worker.run_one(store)
    store.release_claim(key)
    assert worker.run_one(store)
    assert store.get(scenario) is not None
