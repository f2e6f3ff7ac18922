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

Every driver builds :class:`~repro.core.scenario.Scenario` objects: a single
run goes through :func:`~repro.core.scenario.run_scenario`, and a driver with
several independent runs hands its whole grid to
:func:`~repro.core.scenario.sweep_scenarios` (the local job backend;
``jobs=`` / ``REPRO_JOBS`` bound its workers).  An experiment run is
therefore bit-identical to the equivalent declarative scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from ..power.voltage import ideal_synchronous_energy
from ..workloads.profiles import DEFAULT_BENCHMARKS
from .config import DEFAULT_CONFIG, ProcessorConfig
from .domains import available_topologies, get_topology
from .dvfs import SlowdownPolicy
from .metrics import (ComparisonRow, SimulationResult, arithmetic_mean, compare)
from .scenario import (DEFAULT_INSTRUCTIONS, Scenario, ScenarioResult,
                       config_overrides, run_scenario, sweep_scenarios)


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


def _scenario(benchmark: str, topology: str, num_instructions: int,
              config: ProcessorConfig, seed: int, **fields) -> Scenario:
    """One driver run as a scenario (``config`` becomes its overrides)."""
    return Scenario(name=f"{topology}/{benchmark}", topology=topology,
                    workload=benchmark, num_instructions=num_instructions,
                    seed=seed, config=config_overrides(config), **fields)


def run_single(benchmark: str,
               processor: str = "base",
               num_instructions: int = DEFAULT_INSTRUCTIONS,
               config: ProcessorConfig = DEFAULT_CONFIG,
               seed: int = 1) -> SimulationResult:
    """Run one benchmark on one machine (any registered topology name).

    'base' and 'gals' remain the canonical kinds; every other registered
    topology ('frontback2', 'fem3', ...) is accepted the same way, and any
    registered workload name (including 'kernel:<name>') may be passed as
    the benchmark.
    """
    try:
        get_topology(processor)
    except KeyError as exc:
        raise ValueError(f"unknown processor kind {processor!r}") from exc
    return run_scenario(_scenario(benchmark, processor, num_instructions,
                                  config, seed)).result


def run_pair(benchmark: str,
             num_instructions: int = DEFAULT_INSTRUCTIONS,
             config: ProcessorConfig = DEFAULT_CONFIG,
             seed: int = 1,
             phase_seed: int = 0) -> ComparisonRow:
    """Run the same workload on base and GALS and normalise (Figures 5-9)."""
    (row,) = baseline_comparison([benchmark], num_instructions, config, seed,
                                 phase_seed, jobs=1)
    return row


def baseline_comparison(benchmarks: Sequence[str] = DEFAULT_BENCHMARKS,
                        num_instructions: int = DEFAULT_INSTRUCTIONS,
                        config: ProcessorConfig = DEFAULT_CONFIG,
                        seed: int = 1,
                        phase_seed: int = 0,
                        jobs: Optional[int] = None) -> List[ComparisonRow]:
    """Experiment set 1: base vs GALS at equal clocks for a benchmark list.

    One grid of base+GALS pairs runs on the local job backend (``jobs``
    workers; default REPRO_JOBS or the CPU count), and the rows are
    identical whatever the worker count.
    """
    results = [outcome.result for outcome in sweep_scenarios([
        scenario for benchmark in benchmarks for scenario in (
            _scenario(benchmark, "base", num_instructions, config, seed),
            _scenario(benchmark, "gals5", num_instructions, config, seed,
                      phase_seed=phase_seed))], jobs=jobs)]
    return [compare(base, gals)
            for base, gals in zip(results[::2], results[1::2])]


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
    (result,) = _slowdown_grid(benchmark, [policy], num_instructions, config,
                               seed, phase_seed=phase_seed,
                               scale_voltages=scale_voltages, jobs=1)
    return result


def slowdown_sweep(benchmark: str,
                   policies: Sequence[SlowdownPolicy],
                   num_instructions: int = DEFAULT_INSTRUCTIONS,
                   config: ProcessorConfig = DEFAULT_CONFIG,
                   seed: int = 1,
                   jobs: Optional[int] = None) -> List[DvfsResult]:
    """Run a list of slowdown policies on one benchmark (Figure 12 sweep).

    One grid -- the base once, then one GALS run per policy -- runs on the
    local job backend (see :func:`baseline_comparison`); each result equals
    :func:`selective_slowdown` for its policy.
    """
    return _slowdown_grid(benchmark, policies, num_instructions, config,
                          seed, phase_seed=0, scale_voltages=True, jobs=jobs)


def _slowdown_grid(benchmark: str, policies: Sequence[SlowdownPolicy],
                   num_instructions: int, config: ProcessorConfig, seed: int,
                   phase_seed: int, scale_voltages: bool,
                   jobs: Optional[int]) -> List[DvfsResult]:
    """The base plus one GALS run per policy (by slowdowns, not by name, so
    unregistered policies work too), each normalised to the base."""
    base, *gals_runs = (outcome.result for outcome in sweep_scenarios(
        [_scenario(benchmark, "base", num_instructions, config, seed),
         *(_scenario(benchmark, "gals5", num_instructions, config, seed,
                     slowdowns=dict(policy.slowdowns),
                     scale_voltages=scale_voltages, phase_seed=phase_seed)
           for policy in policies)], jobs=jobs))
    results = []
    for policy, gals in zip(policies, gals_runs):
        relative_performance = base.elapsed_ns / gals.elapsed_ns
        results.append(DvfsResult(
            benchmark=benchmark,
            policy=policy.name,
            relative_performance=relative_performance,
            relative_energy=(gals.total_energy_nj / base.total_energy_nj
                             if base.total_energy_nj else 0.0),
            relative_power=(gals.average_power_w / base.average_power_w
                            if base.average_power_w else 0.0),
            ideal_energy=ideal_synchronous_energy(
                min(1.0, relative_performance), config.technology),
            gals_result=gals,
            base_result=base,
        ))
    return results


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
    performance for each phase seed plus its spread.  The base run and the
    per-phase GALS runs form one grid on the local job backend.
    """
    base, *gals_runs = (outcome.result for outcome in sweep_scenarios(
        [_scenario(benchmark, "base", num_instructions, config, seed),
         *(_scenario(benchmark, "gals5", num_instructions, config, seed,
                     phase_seed=phase_seed) for phase_seed in phase_seeds)],
        jobs=jobs))
    performances = {
        f"phase-{phase_seed}": base.elapsed_ns / gals.elapsed_ns
        for phase_seed, gals in zip(phase_seeds, gals_runs)
    }
    values = list(performances.values())
    performances["spread"] = (max(values) - min(values)) / arithmetic_mean(values)
    return performances
