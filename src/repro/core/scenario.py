"""Declarative scenarios: topology + config + clocking + workload + seeds.

A :class:`Scenario` is a complete, JSON-serializable description of one
simulation run: which clock-domain :class:`~repro.core.domains.Topology` to
build, which :class:`~repro.core.config.ProcessorConfig` fields to override,
how to clock the domains (a registered DVFS policy and/or explicit per-domain
slowdowns), which registered workload to run, and every seed involved.  All
cross-references are *names* resolved through the topology, policy and
workload registries, so scenarios round-trip through JSON and pickle cleanly
across process-pool workers.

:func:`run_scenario` is the single execution path and :func:`sweep_scenarios`
(via :func:`~repro.results.resume_sweep`) the single fan-out: every
experiment driver in :mod:`repro.core.experiments` and the CLI run scenarios.
"""

from __future__ import annotations

import gc
import json
import math
import os
from dataclasses import asdict, dataclass, field, replace
from typing import (Any, Dict, List, Mapping, Optional, Sequence, Tuple,
                    Union)

from ..isa.trace import ListTraceSource
from ..power.accounting import EnergyBreakdown
from ..power.technology import TechnologyParameters
from ..workloads.profiles import DEFAULT_INSTRUCTIONS
from ..workloads.registry import build_workload, get_workload_entry
from .config import DEFAULT_CONFIG, ProcessorConfig
from .controllers import DvfsController, make_controller
from .domains import ClockPlan, Topology, get_topology
from .dvfs import get_policy
from .metrics import SimulationResult
from .processor import Processor

#: Environment variable selecting the default worker count of the local
#: job backend.  Unset -> one worker per CPU; "1" -> serial.
JOBS_ENV_VAR = "REPRO_JOBS"


# ------------------------------------------------------------ sweep workers
def default_jobs() -> int:
    """Worker count for experiment sweeps (REPRO_JOBS, else cpu count)."""
    value = os.environ.get(JOBS_ENV_VAR)
    if value:
        try:
            return max(1, int(value))
        except ValueError:
            raise ValueError(f"{JOBS_ENV_VAR} must be an integer, got {value!r}")
    return os.cpu_count() or 1


# ------------------------------------------------------------- single run path
def execute_run(trace: ListTraceSource,
                topology: Union[Topology, str],
                config: ProcessorConfig = DEFAULT_CONFIG,
                plan: Optional[ClockPlan] = None,
                workload=None,
                controller: Optional[DvfsController] = None,
                controller_epoch: float = 0.0) -> SimulationResult:
    """Build one processor for ``topology`` and run one trace through it.

    This is the single funnel every driver uses -- scenario runs, the paper's
    experiment drivers and the CLI all meet here, which is what keeps their
    results mutually bit-identical.  ``controller``/``controller_epoch``
    attach an online DVFS control loop (:mod:`repro.core.controllers`); the
    controller instance must be fresh (controllers are stateful).

    It is also the one place that sets the collector's policy for a run.
    A machine allocates objects fast enough that automatic collections
    would be a measurable share of the run, and it is one large reference
    cycle (clock domains, edge ticks, stage closures), which a collection
    during build or run would only promote to an older generation, where
    it outlives the run until a full collection.  So automatic collection
    is off from construction to the result, and one young-generation
    collection then frees the whole finished machine before it is turned
    back on.  A caller that has already turned collection off keeps it off
    and pays for no collection.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        result = Processor(trace, config=config, plan=plan,
                           workload=workload, topology=topology,
                           controller=controller,
                           controller_epoch=controller_epoch).run()
        if collecting:
            gc.collect(0)
    finally:
        if collecting:
            gc.enable()
    return result


# ------------------------------------------------------------------- scenario
def _copy_containers(value: Any) -> Any:
    """``value`` with every dict, list and tuple in it copied (JSON-safe)."""
    if isinstance(value, dict):
        return {key: _copy_containers(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_copy_containers(item) for item in value)
    return value


@dataclass(frozen=True)
class Scenario:
    """A declarative description of one simulation run."""

    name: str
    #: registered topology name (see ``repro.core.domains.TOPOLOGIES``)
    topology: str = "gals5"
    #: registered workload name ("perl", ..., or "kernel:<name>")
    workload: str = "perl"
    #: registered DVFS policy name, or None for uniform clocks
    policy: Optional[str] = None
    num_instructions: int = DEFAULT_INSTRUCTIONS
    #: problem size for kernel workloads (ignored for synthetic ones)
    kernel_size: int = 64
    #: workload generation seed
    seed: int = 1
    #: seed for the domains' random relative clock phases
    phase_seed: int = 0
    base_period: float = 1.0
    #: apply Equation-1 voltage scaling to slowed domains
    scale_voltages: bool = True
    #: explicit per-*domain* slowdowns, merged over (and overriding) the
    #: policy's per-block slowdowns
    slowdowns: Dict[str, float] = field(default_factory=dict)
    #: explicit per-domain starting phases in ns (domains not listed draw
    #: random phases on multi-domain topologies)
    phases: Dict[str, float] = field(default_factory=dict)
    #: ProcessorConfig field overrides: scalar fields by name, fields of the
    #: nested dataclasses as "memory.<field>" / "technology.<field>"
    config: Dict[str, Any] = field(default_factory=dict)
    #: registered online DVFS controller name ("static", "interval",
    #: "occupancy", "pid", ...), or None for today's static clocking
    controller: Optional[str] = None
    #: JSON-safe constructor arguments for the controller
    controller_args: Dict[str, Any] = field(default_factory=dict)
    #: control epoch in ns (how often the controller observes and may retime)
    controller_epoch: float = 50.0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        # A wrong-typed value would pass the range checks below or fail
        # only deep in the run (a string seed), or run under a second cache
        # key (seed 1.0 for 1), so types are checked first -- exactly, as
        # bool is an int subclass and is refused where a number is meant.
        for attribute, kinds, what in _FIELD_TYPES:
            value = getattr(self, attribute)
            if type(value) not in kinds:
                raise ValueError(f"scenario {self.name!r}: {attribute} must "
                                 f"be {what}, got {value!r}")
        # One run, one key: a period of 1 and of 1.0 is the same run, so the
        # two numeric fields are stored as float (an int too large for a
        # float is infinite, and refused below).
        for attribute in ("base_period", "controller_epoch"):
            try:
                value = float(getattr(self, attribute))
            except OverflowError:
                value = math.inf
            object.__setattr__(self, attribute, value)
        if self.num_instructions <= 0:
            raise ValueError(f"scenario {self.name!r}: num_instructions "
                             "must be positive")
        # NaN fails every comparison, so it is refused with infinity
        if not 0 < self.base_period < math.inf:
            raise ValueError(f"scenario {self.name!r}: base_period must be "
                             "positive and finite")
        if not 0 < self.controller_epoch < math.inf:
            raise ValueError(f"scenario {self.name!r}: controller_epoch "
                             "must be positive and finite")
        if self.controller_args and self.controller is None:
            raise ValueError(f"scenario {self.name!r}: controller_args "
                             "given without a controller")

    # -------------------------------------------------------- materialization
    def build_topology(self) -> Topology:
        """The registered :class:`Topology` this scenario names."""
        return get_topology(self.topology)

    def build_config(self) -> ProcessorConfig:
        """ProcessorConfig with this scenario's overrides applied.

        Raises ValueError for a whole nested object or a dotted scalar key,
        and TypeError for an unknown field at either level.
        """
        if not self.config:
            return DEFAULT_CONFIG
        changes: Dict[str, Any] = {}
        for key, value in self.config.items():
            outer, dot, inner = key.partition(".")
            if (outer in NESTED_CONFIG_FIELDS) != bool(dot):
                raise ValueError(
                    f"scenario {self.name!r}: config key {key!r}: nested "
                    "objects take dotted keys ('memory.<field>', "
                    "'technology.<field>'), other fields plain ones")
            if dot:
                changes.setdefault(outer, {})[inner] = value
            else:
                changes[key] = value
        for outer in NESTED_CONFIG_FIELDS:
            if outer in changes:
                changes[outer] = replace(getattr(DEFAULT_CONFIG, outer),
                                         **changes[outer])
        return DEFAULT_CONFIG.with_changes(**changes)

    def build_plan(self, topology: Optional[Topology] = None,
                   technology: Optional[TechnologyParameters] = None
                   ) -> ClockPlan:
        """Concrete clock/voltage plan for this scenario on its topology."""
        if topology is None:
            topology = self.build_topology()
        if technology is None:
            technology = self.build_config().technology
        slowdowns: Dict[str, float] = {}
        if self.policy is not None:
            # Project the policy's per-block slowdowns onto the topology's
            # domains (a merged domain runs at its slowest member's clock).
            slowdowns.update(get_policy(self.policy).project_onto(topology))
        for domain, slowdown in self.slowdowns.items():
            if (not isinstance(slowdown, (int, float))
                    or not 0 < slowdown < math.inf):
                raise ValueError(
                    f"scenario {self.name!r}: slowdown for domain {domain!r} "
                    f"must be a positive number, got {slowdown!r}")
            slowdowns[domain] = slowdown
        for domain, phase in self.phases.items():
            if (not isinstance(phase, (int, float))
                    or not math.isfinite(phase)):
                raise ValueError(
                    f"scenario {self.name!r}: phase for domain {domain!r} "
                    f"must be a finite number, got {phase!r}")
        unknown = (set(slowdowns) | set(self.phases)) - set(topology.domain_names)
        if unknown:
            raise ValueError(
                f"scenario {self.name!r}: slowdowns/phases name domains "
                f"{sorted(unknown)} absent from topology {topology.name!r}")
        if self.controller is not None and any(
                slowdown < 1.0 for slowdown in slowdowns.values()):
            # a controller's vectors carry every block's current slowdown,
            # and it may not request one below nominal
            raise ValueError(
                f"scenario {self.name!r}: a controller cannot run a domain "
                "faster than nominal (slowdown < 1.0)")
        return ClockPlan(
            base_period=self.base_period,
            slowdowns=slowdowns,
            phases=dict(self.phases),
            # an online controller may introduce slowdowns mid-run, so its
            # presence alone turns Equation-1 voltage scaling on
            scale_voltages=(bool(slowdowns) or self.controller is not None)
            and self.scale_voltages,
            phase_seed=self.phase_seed,
            technology=technology,
        )

    def build_controller(self) -> Optional[DvfsController]:
        """A fresh controller instance for one run (None without one)."""
        if self.controller is None:
            return None
        return make_controller(self.controller, self.controller_args)

    def validate(self) -> None:
        """Resolve every name and build everything but the trace.

        Raises KeyError (unknown topology, workload, policy or controller),
        ValueError (bad slowdown, controller argument or nested config key)
        or TypeError (unknown config field) for a scenario that can never
        run --
        without synthesising its workload or building a processor.
        """
        get_workload_entry(self.workload)
        self.build_plan()
        self.build_controller()

    def build_trace(self):
        """(trace, workload-or-None) for this scenario's workload."""
        return build_workload(self.workload, self.num_instructions,
                              seed=self.seed, kernel_size=self.kernel_size)

    # --------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-safe; inverse of :meth:`from_dict`).

        Equal to ``dataclasses.asdict(self)``, which deep-copies every
        value: fields hold only JSON-safe values, so copying the dicts,
        lists and tuples among them (at every depth) is the same result.
        """
        return {name: _copy_containers(getattr(self, name))
                for name in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Rebuild a scenario from its dict form, rejecting unknown fields."""
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
        return cls(**dict(data))

    def to_json(self, indent: Optional[int] = 2) -> str:
        """JSON text form (see :meth:`to_dict`)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Parse a scenario from JSON text."""
        return cls.from_dict(json.loads(text))


#: (field, accepted types, what the error message asks for) of the
#: Scenario fields whose type ``__post_init__`` checks.
_FIELD_TYPES = (
    *((name, (int,), "an integer")
      for name in ("num_instructions", "kernel_size", "seed", "phase_seed")),
    *((name, (int, float), "a number")
      for name in ("base_period", "controller_epoch")),
    ("scale_voltages", (bool,), "true or false"),
)

#: ProcessorConfig fields holding a nested dataclass; ``Scenario.config``
#: sets their fields with dotted keys.
NESTED_CONFIG_FIELDS = ("memory", "technology")


def config_overrides(config: ProcessorConfig) -> Dict[str, Any]:
    """The ``Scenario.config`` dict that rebuilds ``config`` (the inverse of
    :meth:`Scenario.build_config`): only fields that differ from
    :data:`DEFAULT_CONFIG`, nested ones as dotted keys."""
    overrides: Dict[str, Any] = {}
    for name in ProcessorConfig.__dataclass_fields__:
        value, default = getattr(config, name), getattr(DEFAULT_CONFIG, name)
        if name in NESTED_CONFIG_FIELDS:
            overrides.update(
                (f"{name}.{inner}", getattr(value, inner))
                for inner in type(default).__dataclass_fields__
                if getattr(value, inner) != getattr(default, inner))
        elif value != default:
            overrides[name] = value
    return overrides


# ------------------------------------------------------------ scenario result
def render_section(value: Any) -> str:
    """One top-level section of :meth:`ScenarioResult.to_json`, rendered.

    The text is ``value`` as ``json.dumps(..., indent=2, sort_keys=True)``
    renders it one nesting level deep: every line after the first carries
    two more spaces.  JSON escapes newlines inside strings, so every raw
    newline is structural and re-indenting is a plain replace.
    """
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")


def scenario_result_json(result_section: str, scenario: "Scenario") -> str:
    """The :meth:`ScenarioResult.to_json` text around a rendered result.

    ``result_section`` is :func:`render_section` of the result's dict form.
    This is the only formatter of a scenario result: ``to_json`` calls it,
    and so does the results service, which splices the rendering stored as
    each entry instead of decoding it.
    """
    return ('{\n  "result": ' + result_section + ',\n  "scenario": '
            + render_section(scenario.to_dict()) + "\n}")


def _result_to_dict(result: SimulationResult) -> Dict[str, Any]:
    return asdict(result)


def _result_from_dict(data: Mapping[str, Any]) -> SimulationResult:
    payload = dict(data)
    energy = payload.get("energy")
    if energy is not None and not isinstance(energy, EnergyBreakdown):
        payload["energy"] = EnergyBreakdown(**energy)
    return SimulationResult(**payload)


@dataclass
class ScenarioResult:
    """Outcome of one scenario run: the scenario plus its simulation result."""

    scenario: Scenario
    result: SimulationResult

    def summary(self) -> str:
        """Human-readable summary of the scenario and its result."""
        return (f"scenario {self.scenario.name!r} "
                f"(topology {self.scenario.topology}, workload "
                f"{self.scenario.workload})\n" + self.result.summary())

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form of scenario + result (JSON-safe)."""
        return {"scenario": self.scenario.to_dict(),
                "result": _result_to_dict(self.result)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioResult":
        """Rebuild a ScenarioResult from its dict form."""
        return cls(scenario=Scenario.from_dict(data["scenario"]),
                   result=_result_from_dict(data["result"]))

    def to_json(self) -> str:
        """JSON text form (sorted keys, indent 2); round-trips
        bit-identically."""
        return scenario_result_json(
            render_section(_result_to_dict(self.result)), self.scenario)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioResult":
        """Parse a ScenarioResult from JSON text."""
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------- scenario registry
SCENARIOS: Dict[str, Scenario] = {}


def register_scenario(scenario: Scenario) -> Scenario:
    """Register a named scenario for lookup (and the CLI)."""
    if scenario.name in SCENARIOS:
        raise ValueError(f"scenario {scenario.name!r} already registered")
    SCENARIOS[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario by name."""
    try:
        return SCENARIOS[name]
    except KeyError as exc:
        raise KeyError(f"unknown scenario {name!r}; known: "
                       f"{', '.join(sorted(SCENARIOS))}") from exc


def available_scenarios() -> Tuple[str, ...]:
    """Registered scenario names, in registration order."""
    return tuple(SCENARIOS)


# One runnable scenario per registered topology (the perl workload, uniform
# clocks -- the paper's experiment-set-1 conditions) ...
register_scenario(Scenario(
    name="base", topology="base", workload="perl",
    description="fully synchronous baseline on the perl workload"))
register_scenario(Scenario(
    name="gals5", topology="gals5", workload="perl",
    description="the paper's 5-domain GALS machine on the perl workload"))
register_scenario(Scenario(
    name="frontback2", topology="frontback2", workload="perl",
    description="2-domain front/back split on the perl workload"))
register_scenario(Scenario(
    name="fem3", topology="fem3", workload="perl",
    description="3-domain fetch/exec/memory split on the perl workload"))
register_scenario(Scenario(
    name="alu4", topology="alu4", workload="perl",
    description="4-domain merged-ALU variant on the perl workload"))
register_scenario(Scenario(
    name="memsplit2", topology="memsplit2", workload="perl",
    description="2-domain memory split on the perl workload"))
register_scenario(Scenario(
    name="cluster2-perl", topology="cluster2", workload="perl",
    description="replicated-cluster machine (2 integer/FP cluster pairs, "
                "7 domains) on the perl workload"))

# ... a phase-structured (regime-changing) workload scenario ...
register_scenario(Scenario(
    name="gals5-phased-osc", topology="gals5", workload="phased:intfp-osc",
    num_instructions=1200,
    description="integer/FP oscillating phased workload on the 5-domain "
                "GALS machine"))

# ... plus the paper's DVFS case studies as scenarios ...
register_scenario(Scenario(
    name="gals5-perl-fp3", topology="gals5", workload="perl",
    policy="perl-fp3",
    description="Section 5.2: perl with the FP clock slowed by 3x, "
                "voltage-scaled"))
register_scenario(Scenario(
    name="gals5-gcc-generic", topology="gals5", workload="gcc",
    policy="generic",
    description="Figure 11: gcc under the generic slowdown policy"))

# ... and a real-program (kernel) scenario ...
register_scenario(Scenario(
    name="dotprod-gals5", topology="gals5", workload="kernel:dot_product",
    kernel_size=96,
    description="assembled dot-product kernel on the 5-domain GALS machine"))

# ... plus online (mid-run) DVFS controller scenarios.
register_scenario(Scenario(
    name="gals5-perl-occupancy", topology="gals5", workload="perl",
    controller="occupancy",
    description="adaptive queue-occupancy DVFS controller re-binding domain "
                "clocks mid-run on the perl workload"))
register_scenario(Scenario(
    name="gals5-perl-pid", topology="gals5", workload="perl",
    controller="pid", controller_args={"setpoint": 2.0},
    description="IPC-setpoint PID DVFS controller on the perl workload"))


# ------------------------------------------------------------------ execution
def resolve_scenarios(scenarios: Sequence[Union[Scenario, str]],
                      overrides: Mapping[str, Any]) -> List[Scenario]:
    """Materialise names into registered scenarios and apply overrides."""
    resolved = []
    for scenario in scenarios:
        if isinstance(scenario, str):
            scenario = get_scenario(scenario)
        if overrides:
            scenario = replace(scenario, **overrides)
        resolved.append(scenario)
    return resolved


def run_scenario(scenario: Union[Scenario, str],
                 store: Any = None, **overrides) -> ScenarioResult:
    """Run one scenario (by object or registered name) end to end.

    Keyword overrides are applied with :func:`dataclasses.replace`, e.g.
    ``run_scenario("gals5", num_instructions=500)``.

    ``store`` memoizes the run in the persistent results store
    (:mod:`repro.results`): pass ``True`` for the default store
    (``REPRO_CACHE_DIR``, else ``~/.cache/repro``), a path for a specific
    store root, or a :class:`~repro.results.ResultsStore`.  A cached result
    is bit-identical to a fresh one; the key covers every
    simulation-relevant scenario field plus the code fingerprint.
    """
    if store is not None and store is not False:
        from ..results import run_cached
        return run_cached(scenario, store=store, **overrides).outcome
    (scenario,) = resolve_scenarios([scenario], overrides)
    topology = scenario.build_topology()
    config = scenario.build_config()
    plan = scenario.build_plan(topology, config.technology)
    trace, workload = scenario.build_trace()
    result = execute_run(trace, topology, config=config, plan=plan,
                         workload=workload,
                         controller=scenario.build_controller(),
                         controller_epoch=scenario.controller_epoch)
    return ScenarioResult(scenario=scenario, result=result)


def sweep_scenarios(scenarios: Sequence[Union[Scenario, str]],
                    jobs: Optional[int] = None,
                    store: Any = None,
                    execution: Any = None,
                    **overrides) -> List[ScenarioResult]:
    """Run many scenarios through :func:`~repro.results.resume_sweep`.

    Results come back in submission order and equal per-scenario
    :func:`run_scenario` calls.  Without ``store`` or ``execution`` the
    sweep is uncached and runs on the local job backend (``jobs`` workers;
    default ``REPRO_JOBS`` or the CPU count).  With ``store`` set (see
    :func:`run_scenario`) the sweep is *resumable*: hits load from the
    results store and each computed result is stored as it completes.
    ``execution`` (an :class:`~repro.exec.ExecutionConfig` or a job-backend
    name) selects the backend; its own ``store`` applies unless ``store``
    is given.
    """
    from ..results import resume_sweep
    keywords: Dict[str, Any] = {"jobs": jobs, "execution": execution}
    if store is not None or execution is None:
        keywords["store"] = store
    return [run.outcome
            for run in resume_sweep(scenarios, **keywords, **overrides)]
