"""Core GALS evaluation framework: configurations, processors, experiments.

This package holds the paper's primary contribution: the side-by-side
synchronous vs. GALS processor models, the clock-domain partitioning, the
multiple-clock / multiple-voltage policies, and the experiment drivers that
regenerate the evaluation figures.
"""

from .._compat import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".config": ("DEFAULT_CONFIG", "ProcessorConfig"),
    ".controllers": (
        "CONTROLLERS", "DvfsController", "EpochTelemetry",
        "IntervalController", "OccupancyController", "PidController",
        "StaticController", "available_controllers", "get_controller_type",
        "make_controller", "register_controller"),
    ".domains": (
        "BLOCK_LINKS", "BLOCKS", "DOMAIN_DECODE", "DOMAIN_FETCH", "DOMAIN_FP",
        "DOMAIN_INTEGER", "DOMAIN_MEMORY", "GALS_DOMAINS", "SYNC_DOMAIN",
        "TOPOLOGIES", "ClockPlan", "Topology", "available_topologies",
        "get_topology", "pipeline_stage_table", "register_topology",
        "slowdown_plan", "uniform_plan"),
    ".dvfs": (
        "GCC_GALS_1", "GCC_GALS_2", "GENERIC_SLOWDOWN", "IJPEG_SWEEP",
        "PERL_FP_BY_3", "POLICIES", "SlowdownPolicy", "available_policies",
        "get_policy", "recommend_policy", "register_policy"),
    ".experiments": (
        "DEFAULT_INSTRUCTIONS", "DvfsResult", "average_energy_increase",
        "average_performance_drop", "average_power_saving",
        "average_slip_increase", "baseline_comparison",
        "design_space_scenarios", "phase_sensitivity", "run_design_space",
        "run_pair", "run_single", "selective_slowdown", "slowdown_sweep"),
    ".metrics": (
        "ComparisonRow", "SimulationResult", "SimulationStats",
        "arithmetic_mean", "compare", "geometric_mean"),
    ".processor": (
        "BASE_PROCESSOR", "GALS_PROCESSOR", "Processor",
        "build_base_processor", "build_gals_processor", "build_processor"),
    ".scenario": (
        "SCENARIOS", "Scenario", "ScenarioResult", "available_scenarios",
        "execute_run", "get_scenario", "register_scenario",
        "resolve_scenarios", "run_scenario", "sweep_scenarios"),
})
