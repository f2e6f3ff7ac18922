"""Tests for the pluggable job-backend subsystem (:mod:`repro.exec`).

Covers the backend registry, the :class:`ExecutionConfig` merge semantics
(explicit keywords over config fields), bit-identity of every
backend against the serial reference, the narrowed exception contract
(real worker exceptions surface; only pool-infrastructure failures fall
back), and two sweep processes sharing one store.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.core.scenario import (get_scenario, run_scenario,
                                 scenario_result_json)
from repro.exec import (JOB_BACKENDS, ExecutionConfig, JobHandle,
                        LocalPoolBackend, SerialBackend,
                        available_job_backends, make_job_backend,
                        register_job_backend, resolve_execution)
from repro.results import ResultsStore, resume_sweep
from repro.workloads.registry import (WORKLOAD_SYNTHETIC, WORKLOADS,
                                      WorkloadEntry)

SMALL = 150

#: Six registered scenarios for the shared-store sweep test.
SWEEP_SCENARIOS = ["base", "gals5", "frontback2", "fem3", "alu4", "memsplit2"]


@pytest.fixture
def store(tmp_path):
    return ResultsStore(root=tmp_path / "cache")


# ------------------------------------------------------------------- registry
def test_builtin_backends_are_registered():
    assert available_job_backends() == ("serial", "local")
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


def test_resolve_execution_defaults_and_overrides(store):
    config = resolve_execution()
    assert config.backend == "local" and config.store is True

    config = resolve_execution("serial", jobs=3, store=store)
    assert config.backend == "serial"
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
    reference = [run_scenario(name, num_instructions=SMALL) for name in names]
    for backend in ("serial", "local"):
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
    assert handle.complete(outcome, seconds) is handle
    assert handle.done and handle.outcome is outcome
    assert handle.seconds == seconds


# ------------------------------------------------------------- shared store
def test_two_sweep_processes_share_one_store(tmp_path):
    """Two concurrent ``repro sweep --cache`` processes over one grid and
    one store directory: both succeed, every entry verifies, and every
    served entry is byte-identical to a serial in-process run."""
    root = tmp_path / "shared"
    env = dict(os.environ)
    package_parent = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_parent, env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "repro", "sweep", *SWEEP_SCENARIOS,
               "--instructions", str(SMALL), "--cache", "--cache-dir",
               str(root), "--jobs", "2", "--quiet"]
    sweeps = [subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL,
                               stderr=subprocess.PIPE)
              for _ in range(2)]
    try:
        for sweep in sweeps:
            _, stderr = sweep.communicate(timeout=300)
            assert sweep.returncode == 0, stderr.decode()
    finally:
        for sweep in sweeps:
            if sweep.poll() is None:
                sweep.kill()
                sweep.wait()
    store = ResultsStore(root=root)
    stats = store.verify()
    assert (stats.checked, stats.ok, stats.quarantined) \
        == (len(SWEEP_SCENARIOS), len(SWEEP_SCENARIOS), 0)
    for name in SWEEP_SCENARIOS:
        scenario = replace(get_scenario(name), num_instructions=SMALL)
        expected = run_scenario(scenario).to_json()
        served = store.get_rendering(store.key_for(scenario))
        assert scenario_result_json(served, scenario) == expected, name
        assert store.get(scenario).to_json() == expected, name
