"""Workloads: Spec95/Mediabench behaviour profiles, synthetic traces, kernels.

* :mod:`repro.workloads.profiles` -- per-benchmark behavioural parameters and
  the named multi-phase mix table.
* :mod:`repro.workloads.synthetic` -- deterministic synthetic trace generation.
* :mod:`repro.workloads.kernels` -- hand-written assembly kernels executed
  functionally to produce real traces.
* :mod:`repro.workloads.phased` -- phase-structured traces that change regime
  mid-run (static / oscillating / dynamic hot-set schedules).
* :mod:`repro.workloads.registry` -- the name -> trace-factory registry the
  declarative Scenario subsystem and the CLI resolve workloads through.
"""

from .._compat import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".kernels": ("KERNELS", "Kernel", "get_kernel", "kernel_trace"),
    ".phased": ("PhasedWorkload", "PhasePlacement"),
    ".profiles": (
        "DEFAULT_BENCHMARKS", "DVFS_CASE_STUDY_BENCHMARKS", "PROFILES",
        "WORKLOAD_MIXES", "BenchmarkProfile", "PhasedMix", "available_mixes",
        "get_mix", "get_profile", "profiles_in_suite"),
    ".registry": (
        "KERNEL_PREFIX", "PHASED_PREFIX", "WORKLOADS", "WorkloadEntry",
        "available_workloads", "build_workload", "get_workload_entry"),
    ".synthetic": ("SyntheticWorkload", "make_trace", "make_workload"),
})
