"""Pluggable sweep execution: job backends behind one unified API.

This package decouples *what* a sweep runs (scenarios) from *how* it runs
them.  :class:`~repro.exec.config.ExecutionConfig` is the single spelling of
the execution knobs (backend, jobs, store, retry policy)
threaded through every sweep entry point;
:class:`~repro.exec.backends.JobBackend` is the fabric protocol with two
implementations -- ``serial`` (in-process) and ``local`` (the process
pool, the default).  The ``repro serve`` results service
(:mod:`repro.serve`) drains its miss queue through the same protocol.
:mod:`repro.exec.faults` provides the deterministic fault-injection harness
(seeded :class:`~repro.exec.faults.FaultPlan` activated via
``REPRO_FAULT_PLAN``) that proves the fabric survives pool-worker kills,
torn writes and slow filesystems with bit-identical results.
"""

from .._compat import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".backends": (
        "INFRASTRUCTURE_ERRORS", "JOB_BACKENDS", "JobBackend",
        "JobBackendInfo", "JobHandle", "LocalPoolBackend", "SerialBackend",
        "available_job_backends", "is_infrastructure_error",
        "make_job_backend", "register_job_backend", "retry_delay",
        "timed_run_scenario"),
    ".config": ("UNSET", "ExecutionConfig", "resolve_execution"),
    ".faults": (
        "FAULT_LOG_ENV_VAR", "FAULT_PLAN_ENV_VAR", "FAULT_ROLE_ENV_VAR",
        "FaultPlan", "FaultRule", "inject"),
})
