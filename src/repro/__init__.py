"""repro -- a reproduction of "Power and Performance Evaluation of Globally
Asynchronous Locally Synchronous Processors" (Iyer & Marculescu, ISCA 2002).

The library provides:

* an event-driven simulation engine able to mix clocked and asynchronous
  components (:mod:`repro.sim`),
* a cycle-accurate out-of-order superscalar processor model
  (:mod:`repro.uarch`, :mod:`repro.memory`, :mod:`repro.isa`),
* mixed-clock FIFO communication between clock domains (:mod:`repro.async_comm`),
* Wattch-style power models with per-domain voltage scaling (:mod:`repro.power`),
* the synchronous-vs-GALS evaluation framework itself (:mod:`repro.core`), and
* Spec95/Mediabench-like workload models (:mod:`repro.workloads`).

Quickstart::

    from repro import run_pair, run_scenario
    row = run_pair("perl", num_instructions=2000)
    print(f"GALS relative performance: {row.relative_performance:.3f}")
    print(f"GALS relative power:       {row.relative_power:.3f}")

    # or, declaratively, through the scenario subsystem / `python -m repro`:
    print(run_scenario("frontback2", num_instructions=2000).summary())
"""

from ._compat import lazy_exports

__version__ = "2.8.0"

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".core": (
        "ClockPlan", "ComparisonRow", "DEFAULT_CONFIG", "DvfsController",
        "DvfsResult", "EpochTelemetry", "Processor", "ProcessorConfig",
        "Scenario", "ScenarioResult", "SimulationResult", "SlowdownPolicy",
        "Topology", "available_controllers", "available_policies",
        "available_scenarios", "available_topologies", "baseline_comparison",
        "compare", "design_space_scenarios", "get_policy", "get_scenario",
        "get_topology", "make_controller", "phase_sensitivity",
        "register_controller", "register_scenario", "register_topology",
        "run_design_space", "run_pair", "run_scenario", "run_single",
        "selective_slowdown", "slowdown_plan", "slowdown_sweep",
        "sweep_scenarios", "uniform_plan"),
    ".exec": ("ExecutionConfig", "JobBackend", "available_job_backends",
              "make_job_backend", "register_job_backend"),
    ".results": ("ResultsStore", "code_fingerprint", "resume_sweep",
                 "run_cached"),
    ".workloads": ("DEFAULT_BENCHMARKS", "PROFILES", "available_workloads",
                   "build_workload", "get_kernel", "get_profile",
                   "kernel_trace", "make_trace", "make_workload"),
})
__all__.append("__version__")
