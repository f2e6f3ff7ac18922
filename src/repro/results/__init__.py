"""Persistent, content-addressed store of scenario results.

The package memoizes the single scenario run path on disk: results are keyed
by a canonical hash of the scenario JSON plus a fingerprint of the
simulation-relevant source tree, so identical runs are served from cache
bit-identically and any code or override change invalidates cleanly.  See
:mod:`repro.results.store` for the store, :mod:`repro.results.fingerprint`
for the invalidation scheme and :mod:`repro.results.runner` for resumable
cache-aware sweeps.

The stable public surface of the execution subsystem is re-exported here as
well: :class:`~repro.exec.ExecutionConfig` (the unified execution knobs),
the :class:`~repro.exec.JobBackend` protocol, and the job-backend registry
(:func:`~repro.exec.register_job_backend` /
:func:`~repro.exec.available_job_backends` /
:func:`~repro.exec.make_job_backend`).
"""

from .._compat import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "..exec": (
        "JOB_BACKENDS", "ExecutionConfig", "JobBackend", "JobBackendInfo",
        "JobHandle", "available_job_backends", "make_job_backend",
        "register_job_backend", "resolve_execution"),
    ".fingerprint": (
        "SIMULATION_PACKAGES", "code_fingerprint", "fingerprint_details",
        "source_tree_digest"),
    ".runner": (
        "SweepRun", "hit_rate", "resume_sweep", "run_cached",
        "timed_run_scenario"),
    ".store": (
        "CACHE_DIR_ENV_VAR", "CacheEntry", "GcStats", "ResultsStore",
        "cache_key", "canonical_scenario_dict", "default_cache_dir",
        "resolve_store"),
})
