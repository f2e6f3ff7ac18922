"""Pluggable sweep execution: job backends behind one unified API.

This package decouples *what* a sweep runs (scenarios) from *how* it runs
them.  :class:`~repro.exec.config.ExecutionConfig` is the single spelling of
the execution knobs (backend, jobs, store, warm-start, retry policy)
threaded through every sweep entry point;
:class:`~repro.exec.backends.JobBackend` is the fabric protocol with two
implementations -- ``serial`` (in-process) and ``local`` (the warm-started
process pool, the default).  The ``repro serve`` results service
(:mod:`repro.serve`) drains its miss queue through the same protocol.
:mod:`repro.exec.faults` provides the deterministic fault-injection harness
(seeded :class:`~repro.exec.faults.FaultPlan` activated via
``REPRO_FAULT_PLAN``) that proves the fabric survives pool-worker kills,
torn writes and slow filesystems with bit-identical results.
"""

from .backends import (INFRASTRUCTURE_ERRORS, JOB_BACKENDS, JobBackend,
                       JobBackendInfo, JobHandle, LocalPoolBackend,
                       SerialBackend, available_job_backends,
                       is_infrastructure_error, make_job_backend,
                       register_job_backend, retry_delay, timed_run_scenario)
from .config import UNSET, ExecutionConfig, resolve_execution
from .faults import (FAULT_LOG_ENV_VAR, FAULT_PLAN_ENV_VAR,
                     FAULT_ROLE_ENV_VAR, FaultPlan, FaultRule, inject)

__all__ = [
    "ExecutionConfig",
    "FAULT_LOG_ENV_VAR",
    "FAULT_PLAN_ENV_VAR",
    "FAULT_ROLE_ENV_VAR",
    "FaultPlan",
    "FaultRule",
    "INFRASTRUCTURE_ERRORS",
    "JOB_BACKENDS",
    "JobBackend",
    "JobBackendInfo",
    "JobHandle",
    "LocalPoolBackend",
    "SerialBackend",
    "UNSET",
    "available_job_backends",
    "inject",
    "is_infrastructure_error",
    "make_job_backend",
    "register_job_backend",
    "resolve_execution",
    "retry_delay",
    "timed_run_scenario",
]
