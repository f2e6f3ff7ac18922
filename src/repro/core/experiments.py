"""Experiment drivers reproducing the paper's evaluation (Section 5).

Two experiment families exist, mirroring Section 5:

1. **Base vs GALS with all clocks equal** (Figures 5-10):
   :func:`run_pair` / :func:`baseline_comparison` run the same workload on the
   synchronous and GALS machines and normalise the GALS results.

2. **Multiple-clock, multiple-voltage GALS** (Figures 11-13):
   :func:`selective_slowdown` applies a per-domain slowdown policy with
   Equation-1 voltage scaling and also computes the "ideal" reference -- the
   synchronous machine globally slowed (and voltage-scaled) to the same
   performance level.

All drivers are deterministic given their seeds and work from the synthetic
profile-driven workloads by default; any
:class:`~repro.isa.trace.ListTraceSource` (e.g. a kernel trace) can be passed
instead.

Every driver funnels through the single scenario execution path
(:func:`repro.core.scenario.execute_run`), so an experiment run and the
equivalent declarative :class:`~repro.core.scenario.Scenario` produce
bit-identical results.  The parallel runner (``jobs=`` / ``REPRO_JOBS``)
lives in :mod:`repro.core.scenario`; its names are re-exported here for
backwards compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from ..power.voltage import ideal_synchronous_energy
from ..workloads.profiles import DEFAULT_BENCHMARKS
from ..workloads.registry import build_workload
from .config import DEFAULT_CONFIG, ProcessorConfig
from .domains import (ClockPlan, available_topologies, get_topology,
                      uniform_plan)
from .dvfs import SlowdownPolicy
from .metrics import (ComparisonRow, SimulationResult, arithmetic_mean, compare)
from .scenario import (DEFAULT_INSTRUCTIONS, JOBS_ENV_VAR, Scenario,
                       ScenarioResult, _call_star, _run_jobs,
                       default_jobs, execute_run, sweep_scenarios)


@dataclass
class DvfsResult:
    """Outcome of one multiple-clock / multiple-voltage configuration."""

    benchmark: str
    policy: str
    relative_performance: float    # vs. the fully synchronous base
    relative_energy: float
    relative_power: float
    ideal_energy: float            # voltage-scaled synchronous reference
    gals_result: Optional[SimulationResult] = None
    base_result: Optional[SimulationResult] = None

    @property
    def performance_drop(self) -> float:
        """Fractional slowdown vs the synchronous base (0.1 = 10 % slower)."""
        return 1.0 - self.relative_performance

    @property
    def energy_saving(self) -> float:
        """Fractional energy saved vs the synchronous base."""
        return 1.0 - self.relative_energy

    @property
    def power_saving(self) -> float:
        """Fractional power saved vs the synchronous base."""
        return 1.0 - self.relative_power


def run_single(benchmark: str,
               processor: str = "base",
               num_instructions: int = DEFAULT_INSTRUCTIONS,
               config: ProcessorConfig = DEFAULT_CONFIG,
               plan: Optional[ClockPlan] = None,
               seed: int = 1) -> SimulationResult:
    """Run one benchmark on one machine (any registered topology name).

    'base' and 'gals' remain the canonical kinds; every other registered
    topology ('frontback2', 'fem3', ...) is accepted the same way, and any
    registered workload name (including 'kernel:<name>') may be passed as
    the benchmark.
    """
    trace, workload = build_workload(benchmark, num_instructions, seed=seed)
    try:
        topology = get_topology(processor)
    except KeyError as exc:
        raise ValueError(f"unknown processor kind {processor!r}") from exc
    return execute_run(trace, topology, config=config, plan=plan,
                       workload=workload)


def run_pair(benchmark: str,
             num_instructions: int = DEFAULT_INSTRUCTIONS,
             config: ProcessorConfig = DEFAULT_CONFIG,
             gals_plan: Optional[ClockPlan] = None,
             base_plan: Optional[ClockPlan] = None,
             seed: int = 1,
             phase_seed: int = 0) -> ComparisonRow:
    """Run the same workload on base and GALS and normalise (Figures 5-9)."""
    if gals_plan is None:
        gals_plan = uniform_plan(phase_seed=phase_seed)
    base = run_single(benchmark, "base", num_instructions, config, base_plan, seed)
    gals = run_single(benchmark, "gals", num_instructions, config, gals_plan, seed)
    return compare(base, gals)


def baseline_comparison(benchmarks: Sequence[str] = DEFAULT_BENCHMARKS,
                        num_instructions: int = DEFAULT_INSTRUCTIONS,
                        config: ProcessorConfig = DEFAULT_CONFIG,
                        seed: int = 1,
                        phase_seed: int = 0,
                        jobs: Optional[int] = None) -> List[ComparisonRow]:
    """Experiment set 1: base vs GALS at equal clocks for a benchmark list.

    Runs fan out over a process pool (``jobs`` workers; default REPRO_JOBS or
    the CPU count) and the result list matches the serial path exactly.
    """
    return _run_jobs(
        run_pair,
        [(benchmark, num_instructions, config, None, None, seed, phase_seed)
         for benchmark in benchmarks],
        jobs=jobs)


def average_performance_drop(rows: Iterable[ComparisonRow]) -> float:
    """Arithmetic-mean GALS slowdown over a set of comparison rows."""
    return arithmetic_mean(row.performance_drop for row in rows)


def average_power_saving(rows: Iterable[ComparisonRow]) -> float:
    """Arithmetic-mean GALS power saving over a set of comparison rows."""
    return arithmetic_mean(row.power_saving for row in rows)


def average_energy_increase(rows: Iterable[ComparisonRow]) -> float:
    """Arithmetic-mean GALS energy increase over a set of comparison rows."""
    return arithmetic_mean(row.energy_increase for row in rows)


def average_slip_increase(rows: Iterable[ComparisonRow]) -> float:
    """Arithmetic-mean slip increase (ratio - 1) over a set of comparison rows."""
    return arithmetic_mean(row.slip_ratio - 1.0 for row in rows)


# --------------------------------------------------------- DVFS (Figures 11-13)
def selective_slowdown(benchmark: str,
                       policy: SlowdownPolicy,
                       num_instructions: int = DEFAULT_INSTRUCTIONS,
                       config: ProcessorConfig = DEFAULT_CONFIG,
                       seed: int = 1,
                       phase_seed: int = 0,
                       scale_voltages: bool = True) -> DvfsResult:
    """Experiment set 2: slow selected GALS domains, scale their voltages.

    Returns the GALS configuration's performance/energy/power relative to the
    fully synchronous base, plus the "ideal" energy of the base machine
    globally slowed (and voltage-scaled) to the same performance.
    """
    base = run_single(benchmark, "base", num_instructions, config, None, seed)
    plan = policy.plan(scale_voltages=scale_voltages, phase_seed=phase_seed,
                       technology=config.technology)
    gals = run_single(benchmark, "gals", num_instructions, config, plan, seed)
    relative_performance = base.elapsed_ns / gals.elapsed_ns
    relative_energy = (gals.total_energy_nj / base.total_energy_nj
                       if base.total_energy_nj else 0.0)
    relative_power = (gals.average_power_w / base.average_power_w
                      if base.average_power_w else 0.0)
    ideal = ideal_synchronous_energy(min(1.0, relative_performance),
                                     config.technology)
    return DvfsResult(
        benchmark=benchmark,
        policy=policy.name,
        relative_performance=relative_performance,
        relative_energy=relative_energy,
        relative_power=relative_power,
        ideal_energy=ideal,
        gals_result=gals,
        base_result=base,
    )


def slowdown_sweep(benchmark: str,
                   policies: Sequence[SlowdownPolicy],
                   num_instructions: int = DEFAULT_INSTRUCTIONS,
                   config: ProcessorConfig = DEFAULT_CONFIG,
                   seed: int = 1,
                   jobs: Optional[int] = None) -> List[DvfsResult]:
    """Run a list of slowdown policies on one benchmark (Figure 12 sweep).

    Each policy's base+GALS pair is independent, so the sweep uses the
    parallel runner (see :func:`baseline_comparison`).
    """
    return _run_jobs(
        selective_slowdown,
        [(benchmark, policy, num_instructions, config, seed)
         for policy in policies],
        jobs=jobs)


# ---------------------------------------------------- design-space exploration
def design_space_scenarios(topologies: Optional[Sequence[str]] = None,
                           workloads: Sequence[str] = ("perl",),
                           policies: Sequence[Optional[str]] = (None,),
                           controllers: Sequence[Optional[str]] = (None,),
                           num_instructions: int = DEFAULT_INSTRUCTIONS,
                           seed: int = 1,
                           **scenario_fields) -> List[Scenario]:
    """The topology × workload × policy × controller grid as scenarios.

    Each cell is named ``topology/workload/policy[/controller]`` (``uniform``
    for no policy; the controller segment only appears for adaptive cells) so
    grid cells are stable across invocations -- and, because the
    results-store key ignores scenario names entirely, a cell that matches an
    already cached run (from a plain ``repro run``/``sweep``) is a cache hit
    even under its grid name.  ``controllers`` entries are registered online
    DVFS controller names (:mod:`repro.core.controllers`); ``None`` keeps the
    static path.
    """
    if topologies is None:
        topologies = available_topologies()
    grid = []
    for topology in topologies:
        for workload in workloads:
            for policy in policies:
                for controller in controllers:
                    name = f"{topology}/{workload}/{policy or 'uniform'}"
                    if controller is not None:
                        name += f"/{controller}"
                    grid.append(Scenario(
                        name=name,
                        topology=topology, workload=workload, policy=policy,
                        controller=controller,
                        num_instructions=num_instructions, seed=seed,
                        description="design-space grid cell",
                        **scenario_fields))
    return grid


def run_design_space(topologies: Optional[Sequence[str]] = None,
                     workloads: Sequence[str] = ("perl",),
                     policies: Sequence[Optional[str]] = (None,),
                     controllers: Sequence[Optional[str]] = (None,),
                     num_instructions: int = DEFAULT_INSTRUCTIONS,
                     seed: int = 1,
                     jobs: Optional[int] = None,
                     store=True,
                     execution=None,
                     **scenario_fields) -> List[ScenarioResult]:
    """Run (or load from the results store) the whole design-space grid.

    Feeds ``repro report compare``: with the default ``store=True`` the grid
    is resumable and a repeated invocation renders purely from cached
    :class:`ScenarioResult` records.  ``execution`` selects the job backend
    (see :func:`~repro.core.scenario.sweep_scenarios`).
    """
    grid = design_space_scenarios(topologies, workloads, policies, controllers,
                                  num_instructions, seed, **scenario_fields)
    return sweep_scenarios(grid, jobs=jobs, store=store, execution=execution)


# -------------------------------------------------------------- phase studies
def phase_sensitivity(benchmark: str = "perl",
                      phase_seeds: Sequence[int] = (0, 1, 2, 3, 4),
                      num_instructions: int = DEFAULT_INSTRUCTIONS,
                      config: ProcessorConfig = DEFAULT_CONFIG,
                      seed: int = 1,
                      jobs: Optional[int] = None) -> Dict[str, float]:
    """Sensitivity of GALS performance to relative clock phases (§5.1).

    The paper observes a variation of the order of 0.5 % when all clocks run
    at the same frequency with random relative phases.  Returns the relative
    performance for each phase seed plus its spread.  The per-phase GALS runs
    are independent and use the parallel runner.
    """
    base = run_single(benchmark, "base", num_instructions, config, None, seed)
    gals_runs = _run_jobs(
        run_single,
        [(benchmark, "gals", num_instructions, config,
          uniform_plan(phase_seed=phase_seed), seed)
         for phase_seed in phase_seeds],
        jobs=jobs)
    performances = {
        f"phase-{phase_seed}": base.elapsed_ns / gals.elapsed_ns
        for phase_seed, gals in zip(phase_seeds, gals_runs)
    }
    values = list(performances.values())
    performances["spread"] = (max(values) - min(values)) / arithmetic_mean(values)
    return performances
