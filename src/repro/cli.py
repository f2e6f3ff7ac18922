"""Command-line interface: ``python -m repro`` (or the ``repro`` script).

The CLI exposes the declarative Scenario subsystem:

* ``repro list [what]``      -- registered topologies, policies, workloads,
  scenarios (default: everything);
* ``repro topology NAME``    -- describe one clock-domain topology;
* ``repro show SCENARIO``    -- print a registered scenario as JSON;
* ``repro run SCENARIO``     -- run one scenario (with overrides) and print
  its summary, optionally dumping the full result as JSON;
* ``repro sweep SCENARIO..`` -- run many scenarios in parallel over the
  ``REPRO_JOBS`` process pool, print per-scenario cached/computed status and
  a comparison table;
* ``repro cache ls|gc|clear`` -- inspect and maintain the persistent results
  store (:mod:`repro.results`, rooted at ``REPRO_CACHE_DIR``);
* ``repro report ...``       -- render the paper's figure tables
  (:mod:`repro.analysis.report`) from fresh runs, and ``repro report
  compare`` -- cross-topology design-space tables from cached results;
* ``repro serve``            -- run the HTTP results service
  (:mod:`repro.serve`): cached queries answer bit-identically to ``repro
  run --json``, misses are queued on a job backend and served once stored;
* ``repro query``            -- query a running ``repro serve`` instance
  for one scenario (optionally waiting for a queued miss to land).

Every run funnels through :func:`repro.core.scenario.run_scenario`, so CLI
results are bit-identical to library results for the same scenario --
including results served from the cache (``--cache``), which are stored and
reloaded bit-exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence

from .analysis.report import (design_space_records, design_space_table,
                              dvfs_table, dvfs_trace_table,
                              energy_power_table, misspeculation_table,
                              performance_table, scenario_table,
                              slip_breakdown_table, slip_table)
from .core.controllers import CONTROLLERS
from .core.domains import TOPOLOGIES, get_topology
from .core.dvfs import POLICIES, get_policy
from .core.experiments import (DEFAULT_INSTRUCTIONS, baseline_comparison,
                               design_space_scenarios, slowdown_sweep)
from .core.scenario import (SCENARIOS, Scenario, get_scenario,
                            resolve_scenarios)
from .exec import JOB_BACKENDS, ExecutionConfig
from .results import (ResultsStore, code_fingerprint, hit_rate, resume_sweep,
                      run_cached)
from .workloads.profiles import DEFAULT_BENCHMARKS, DVFS_CASE_STUDY_BENCHMARKS
from .workloads.registry import PHASED_PREFIX, WORKLOADS


# ------------------------------------------------------------------- helpers
def _parse_value(text: str) -> Any:
    """Parse an override value: JSON first, bare string as fallback."""
    try:
        return json.loads(text)
    except ValueError:
        return text


def _parse_assignments(pairs: Sequence[str], flag: str) -> Dict[str, Any]:
    """Parse repeated KEY=VALUE flags into a dict."""
    parsed: Dict[str, Any] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"error: {flag} expects KEY=VALUE, got {pair!r}")
        parsed[key] = _parse_value(value)
    return parsed


def _scenario_with_overrides(args: argparse.Namespace) -> Scenario:
    """Resolve the named scenario and apply CLI overrides."""
    scenario = get_scenario(args.scenario)
    changes: Dict[str, Any] = {}
    if args.topology is not None:
        changes["topology"] = args.topology
    if args.workload is not None:
        changes["workload"] = args.workload
    if args.policy is not None:
        changes["policy"] = None if args.policy == "none" else args.policy
    if args.instructions is not None:
        changes["num_instructions"] = args.instructions
    if args.seed is not None:
        changes["seed"] = args.seed
    if args.phase_seed is not None:
        changes["phase_seed"] = args.phase_seed
    if args.kernel_size is not None:
        changes["kernel_size"] = args.kernel_size
    if args.base_period is not None:
        changes["base_period"] = args.base_period
    if args.no_scale_voltages:
        changes["scale_voltages"] = False
    if args.slowdown:
        changes["slowdowns"] = {**_parse_assignments(args.slowdown, "--slowdown")}
    if args.config:
        changes["config"] = {**_parse_assignments(args.config, "--config")}
    if args.controller is not None:
        if args.controller == "none":
            changes["controller"] = None
            changes["controller_args"] = {}
        else:
            changes["controller"] = args.controller
            if args.controller != scenario.controller:
                # switching controller type: the scenario's stored args are
                # for the old controller's constructor and would be rejected
                changes["controller_args"] = {}
    if args.controller_arg:
        changes["controller_args"] = {
            **_parse_assignments(args.controller_arg, "--controller-arg")}
    if args.controller_epoch is not None:
        changes["controller_epoch"] = args.controller_epoch
    return replace(scenario, **changes) if changes else scenario


def _add_cache_arguments(parser: argparse.ArgumentParser,
                         default: bool) -> None:
    state = "on" if default else "off"
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--cache", action="store_true", dest="cache",
                       default=None,
                       help="serve/store results via the persistent results "
                            f"store (default: {state})")
    group.add_argument("--no-cache", action="store_false", dest="cache",
                       help="force fresh runs, bypassing the results store")
    parser.add_argument("--cache-dir", metavar="PATH", dest="cache_dir",
                        help="results-store root (default: REPRO_CACHE_DIR "
                             "or ~/.cache/repro)")


def _store_from_args(args: argparse.Namespace,
                     default: bool) -> Optional[ResultsStore]:
    """The results store selected by --cache/--no-cache/--cache-dir.

    An explicit ``--cache-dir`` implies ``--cache`` unless ``--no-cache``
    overrides it.
    """
    if args.cache is not None:
        enabled = args.cache
    else:
        enabled = default or args.cache_dir is not None
    if not enabled:
        return None
    return ResultsStore(root=args.cache_dir)


def _add_override_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topology", help="override the scenario's topology")
    parser.add_argument("--workload", help="override the scenario's workload")
    parser.add_argument("--policy",
                        help="override the DVFS policy ('none' clears it)")
    parser.add_argument("--instructions", type=int, metavar="N",
                        help="trace length override")
    parser.add_argument("--seed", type=int, help="workload seed override")
    parser.add_argument("--phase-seed", type=int, dest="phase_seed",
                        help="clock-phase seed override")
    parser.add_argument("--kernel-size", type=int, dest="kernel_size",
                        help="problem size for kernel workloads")
    parser.add_argument("--base-period", type=float, dest="base_period",
                        help="nominal clock period in ns")
    parser.add_argument("--no-scale-voltages", action="store_true",
                        help="disable Equation-1 voltage scaling")
    parser.add_argument("--slowdown", action="append", default=[],
                        metavar="DOMAIN=FACTOR",
                        help="explicit per-domain slowdown (repeatable)")
    parser.add_argument("--config", action="append", default=[],
                        metavar="FIELD=VALUE",
                        help="ProcessorConfig field override (repeatable)")
    parser.add_argument("--controller",
                        help="online DVFS controller: static, interval, "
                             "occupancy, pid, ... ('none' clears it)")
    parser.add_argument("--controller-arg", action="append", default=[],
                        dest="controller_arg", metavar="KEY=VALUE",
                        help="controller constructor argument (repeatable; "
                             "values parse as JSON)")
    parser.add_argument("--controller-epoch", type=float,
                        dest="controller_epoch", metavar="NS",
                        help="control epoch in ns (default 50)")


# ------------------------------------------------------------------ commands
def _cmd_list(args: argparse.Namespace) -> int:
    what = args.what
    sections = []
    if what in ("topologies", "all"):
        rows = [f"  {name:<12} {topo.num_domains} domain(s): "
                f"{topo.description}" for name, topo in TOPOLOGIES.items()]
        sections.append("topologies:\n" + "\n".join(rows))
    if what in ("policies", "all"):
        rows = [f"  {name:<12} {policy.description}"
                for name, policy in POLICIES.items()]
        sections.append("DVFS policies:\n" + "\n".join(rows))
    if what in ("controllers", "all"):
        rows = [f"  {name:<12} {factory.description}"
                for name, factory in CONTROLLERS.items()]
        sections.append("DVFS controllers (online, per control epoch):\n"
                        + "\n".join(rows))
    if what in ("workloads", "all"):
        # sorted (like available_workloads) so newly registered families
        # never reorder existing CLI/doc snapshots
        rows = [f"  {name:<22} [{entry.kind}] {entry.description}"
                for name, entry in sorted(WORKLOADS.items())]
        sections.append("workloads:\n" + "\n".join(rows))
    if what in ("scenarios", "all"):
        rows = []
        for name, scenario in SCENARIOS.items():
            policy = scenario.policy or "-"
            rows.append(f"  {name:<20} topology={scenario.topology:<11} "
                        f"workload={scenario.workload:<18} policy={policy:<10} "
                        f"{scenario.description}")
        sections.append("scenarios:\n" + "\n".join(rows))
    if what in ("backends", "all"):
        rows = [f"  {name:<12} {info.description}"
                for name, info in JOB_BACKENDS.items()]
        sections.append("job backends (sweep execution fabrics; select with "
                        "--job-backend or ExecutionConfig):\n"
                        + "\n".join(rows))
    print("\n\n".join(sections))
    return 0


def _cmd_topology(args: argparse.Namespace) -> int:
    print(get_topology(args.name).describe())
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    scenario = get_scenario(args.scenario)
    print(scenario.to_json())
    if scenario.workload.startswith(PHASED_PREFIX):
        from .workloads import PhasedWorkload, get_mix
        workload = PhasedWorkload(
            get_mix(scenario.workload[len(PHASED_PREFIX):]),
            seed=scenario.seed, kernel_size=scenario.kernel_size)
        print()
        print(workload.describe_schedule(scenario.num_instructions))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = _scenario_with_overrides(args)
    if not args.quiet:
        controller = (f", controller={scenario.controller} "
                      f"(epoch {scenario.controller_epoch:g} ns)"
                      if scenario.controller else "")
        print(f"running scenario {scenario.name!r}: topology="
              f"{scenario.topology}, workload={scenario.workload}, "
              f"policy={scenario.policy or '-'}{controller}, "
              f"{scenario.num_instructions} instructions")
    store = _store_from_args(args, default=False)
    run = run_cached(scenario, store=store)
    outcome = run.outcome
    if not args.quiet:
        if run.cached:
            print(f"  served from cache (key {run.key[:12]}, saved "
                  f"{run.seconds:.2f}s)")
        elif store is not None:
            print(f"  computed in {run.seconds:.2f}s and cached "
                  f"(key {run.key[:12]})")
        print()
        print(outcome.result.summary())
        print(f"  domain cycles: {outcome.result.domain_cycles}")
        print(f"  domain voltages: "
              f"{ {k: round(v, 3) for k, v in outcome.result.domain_voltages.items()} }")
        if outcome.result.dvfs_trace:
            print()
            print("per-epoch DVFS trace (domain frequencies in GHz; "
                  "* = retimed):")
            print(dvfs_trace_table(outcome))
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(outcome.to_json())
        if not args.quiet:
            print(f"  result written to {args.json}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import cProfile
    import io
    import pstats

    scenario = _scenario_with_overrides(args)
    if not args.quiet:
        print(f"profiling scenario {scenario.name!r}: topology="
              f"{scenario.topology}, workload={scenario.workload}, "
              f"{scenario.num_instructions} instructions")
    from .core.scenario import run_scenario

    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    outcome = run_scenario(scenario)
    profiler.disable()
    seconds = time.perf_counter() - start
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats(args.sort)
    if args.json:
        width, functions = stats.get_print_list([args.limit])
        records = []
        for func in functions:
            cc, nc, tottime, cumtime, _callers = stats.stats[func]
            filename, line, name = func
            records.append({
                "function": name, "file": filename, "line": line,
                "calls": nc, "primitive_calls": cc,
                "tottime": tottime, "cumtime": cumtime,
            })
        payload = {
            "scenario": scenario.name,
            "topology": scenario.topology,
            "workload": scenario.workload,
            "num_instructions": scenario.num_instructions,
            "wall_seconds": seconds,
            "sort": args.sort,
            "instr_per_sec": (outcome.result.committed_instructions / seconds
                              if seconds > 0 else 0.0),
            "functions": records,
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=1)
        if not args.quiet:
            print(f"  profile written to {args.json}")
    if not args.quiet or not args.json:
        buffer.seek(0)
        buffer.truncate()
        stats.print_stats(args.limit)
        print(buffer.getvalue(), end="")
        rate = (outcome.result.committed_instructions / seconds
                if seconds > 0 else 0.0)
        print(f"wall {seconds:.3f}s, {rate:,.0f} committed instr/s "
              f"(profiler overhead included)")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    names = list(args.scenarios)
    if args.all:
        names = [name for name in SCENARIOS if name not in names] + names
    if not names:
        raise SystemExit("error: no scenarios given (name some or use --all)")
    overrides: Dict[str, Any] = {}
    if args.instructions is not None:
        overrides["num_instructions"] = args.instructions
    if args.seed is not None:
        overrides["seed"] = args.seed
    scenarios = resolve_scenarios(names, overrides)
    if not args.quiet:
        print(f"sweeping {len(scenarios)} scenario(s) "
              f"({scenarios[0].num_instructions} instructions each)...")
    store = _store_from_args(args, default=False)
    wall_start = time.perf_counter()
    runs = resume_sweep(scenarios, store=store, jobs=args.jobs,
                        execution=args.job_backend)
    wall = time.perf_counter() - wall_start
    results = [run.outcome for run in runs]
    if not args.quiet:
        for run in runs:
            if run.cached:
                timing = f"(saved {run.seconds:.2f}s)" if run.seconds else ""
            else:
                timing = f"{run.seconds:.2f}s"
            print(f"  {run.outcome.scenario.name:<20} {run.status:<9} "
                  f"{timing}")
        hits = sum(run.cached for run in runs)
        summary = f"swept {len(runs)} scenario(s) in {wall:.2f}s"
        if store is not None:
            summary += (f"; cache: {hits}/{len(runs)} hits "
                        f"({hit_rate(runs):.0%})")
        print(summary)
        print()
    print(scenario_table(results))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump([item.to_dict() for item in results], handle, indent=2,
                      sort_keys=True)
        if not args.quiet:
            print(f"results written to {args.json}")
    return 0


# ------------------------------------------------------------- results store
def _cmd_cache(args: argparse.Namespace) -> int:
    store = ResultsStore(root=args.cache_dir)
    if args.action == "ls":
        entries = store.entries()
        print(f"results store: {store.root}")
        print(f"code fingerprint: {store.fingerprint}")
        if not entries:
            print("(empty)")
            return 0
        print(f"{'key':<14} {'scenario':<22} {'topology':<11} "
              f"{'workload':<18} {'created':<19} {'wall s':>7}  state")
        total = 0
        for entry in entries:
            total += entry.size_bytes
            state = "stale" if entry.stale else "ok"
            print(f"{entry.key[:12]:<14} {entry.scenario_name:<22} "
                  f"{entry.topology:<11} {entry.workload:<18} "
                  f"{entry.created:<19} {entry.wall_seconds:>7.2f}  {state}")
        print(f"{len(entries)} entr{'y' if len(entries) == 1 else 'ies'}, "
              f"{total / 1024:.1f} KiB")
    elif args.action == "gc":
        stats = store.gc()
        print(f"removed {stats.removed} stale entr"
              f"{'y' if stats.removed == 1 else 'ies'} "
              f"({stats.bytes_freed / 1024:.1f} KiB), kept {stats.kept}")
    elif args.action == "verify":
        stats = store.verify()
        print(f"results store: {store.root}")
        print(f"checked {stats.checked} entr"
              f"{'y' if stats.checked == 1 else 'ies'}: "
              f"{stats.ok} ok, {stats.quarantined} quarantined")
        if stats.quarantined:
            print(f"(quarantined entries moved to {store.quarantine_dir}; "
                  f"inspect with 'repro cache quarantine')")
            return 1
    elif args.action == "quarantine":
        if getattr(args, "clear", False):
            removed = store.clear_quarantine()
            print(f"removed {removed} quarantined file"
                  f"{'' if removed == 1 else 's'} from "
                  f"{store.quarantine_dir}")
            return 0
        quarantined = store.quarantined()
        print(f"quarantine: {store.quarantine_dir}")
        if not quarantined:
            print("(empty)")
            return 0
        for item in quarantined:
            print(f"{item.kind:<8} {item.path.name}")
            if item.reason:
                print(f"         {item.reason}")
        print(f"{len(quarantined)} file{'' if len(quarantined) == 1 else 's'}"
              f" (clear with 'repro cache quarantine --clear')")
    else:  # clear
        removed = store.clear()
        print(f"removed {removed} entr{'y' if removed == 1 else 'ies'} "
              f"from {store.root}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.family == "compare":
        return _cmd_report_compare(args)
    instructions = args.instructions
    if args.family == "baseline":
        benchmarks = args.benchmarks or list(DEFAULT_BENCHMARKS)
        rows = baseline_comparison(benchmarks, num_instructions=instructions,
                                   jobs=args.jobs)
        print("=== Figure 5: relative performance ===")
        print(performance_table(rows))
        print()
        print("=== Figure 6: instruction slip ===")
        print(slip_table(rows))
        print()
        print("=== Figure 7: slip breakdown ===")
        print(slip_breakdown_table(rows))
        print()
        print("=== Figure 8: mis-speculation ===")
        print(misspeculation_table(rows))
        print()
        print("=== Figure 9: energy and power ===")
        print(energy_power_table(rows))
    else:  # dvfs
        benchmark = args.benchmark
        if args.policies:
            policies = [get_policy(name) for name in args.policies]
        else:
            policies = list(POLICIES.values())
        results = slowdown_sweep(benchmark, policies,
                                 num_instructions=instructions,
                                 jobs=args.jobs)
        print(f"=== Figures 11-13: DVFS case study ({benchmark}) ===")
        print(dvfs_table(results))
    return 0


def _cmd_report_compare(args: argparse.Namespace) -> int:
    """Cross-topology design-space table from cached ScenarioResults."""
    policies = [None if name == "none" else name
                for name in (args.policies or ["none"])]
    controllers = [None if name == "none" else name
                   for name in (args.controllers or ["none"])]
    grid = design_space_scenarios(
        topologies=args.topologies, workloads=args.workloads,
        policies=policies, controllers=controllers,
        num_instructions=args.instructions, seed=args.seed)
    store = _store_from_args(args, default=True)
    runs = resume_sweep(grid, store=store, jobs=args.jobs,
                        execution=args.job_backend)
    results = [run.outcome for run in runs]
    hits = sum(run.cached for run in runs)
    print(f"=== design-space compare: {len(results)} configuration(s), "
          f"{hits} from cache ===")
    print(design_space_table(results))
    if args.json:
        payload = {
            "fingerprint": code_fingerprint(),
            "instructions": args.instructions,
            "seed": args.seed,
            "records": design_space_records(results),
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"records written to {args.json}")
    return 0


# ------------------------------------------------------------ results service
def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the HTTP results service in the foreground."""
    from .serve import ResultsService

    execution = ExecutionConfig(backend=args.job_backend or "local",
                                jobs=args.jobs)
    service = ResultsService(store=ResultsStore(root=args.cache_dir),
                             execution=execution,
                             host=args.host, port=args.port,
                             poll_interval=args.poll_interval,
                             verbose=not args.quiet)
    service.start()
    # the URL line is the machine-readable handshake (port may be ephemeral)
    print(f"serving results store {service.store.root} at {service.url} "
          f"(backend: {service.execution.backend})", flush=True)
    service.run_forever()
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    """Query a running ``repro serve`` instance for one scenario."""
    from .serve import QueryReply, query_scenario

    scenario = _scenario_with_overrides(args)
    reply: QueryReply = query_scenario(args.url, scenario, wait=args.wait,
                                       poll=args.poll)
    if reply.code == 200:
        if not args.quiet:
            print(f"{reply.status} (key {reply.key[:12]}) from {args.url}")
        if args.json:
            with open(args.json, "w") as handle:
                handle.write(reply.body)
            if not args.quiet:
                print(f"  result written to {args.json}")
        else:
            from .core.scenario import ScenarioResult
            outcome = ScenarioResult.from_dict(reply.payload)
            print(outcome.result.summary())
        return 0
    if reply.code == 202:
        print(f"pending: the service queued key {reply.key[:12]} "
              f"(re-query or raise --wait)", file=sys.stderr)
        return 3
    error = reply.payload.get("error") if isinstance(reply.payload, dict) \
        else reply.body
    print(f"error: service replied {reply.code}: {error}", file=sys.stderr)
    return 2


# --------------------------------------------------------------------- parser
def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro`` argument parser (single source of truth for the generated CLI reference in the docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GALS processor reproduction (Iyer & Marculescu, "
                    "ISCA 2002): scenario runner and figure harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    list_parser = sub.add_parser(
        "list", help="list registered topologies/policies/workloads/scenarios")
    list_parser.add_argument(
        "what", nargs="?", default="all",
        choices=("all", "topologies", "policies", "controllers", "workloads",
                 "scenarios", "backends"))
    list_parser.set_defaults(handler=_cmd_list)

    topo_parser = sub.add_parser("topology",
                                 help="describe one clock-domain topology")
    topo_parser.add_argument("name")
    topo_parser.set_defaults(handler=_cmd_topology)

    show_parser = sub.add_parser("show",
                                 help="print a registered scenario as JSON")
    show_parser.add_argument("scenario")
    show_parser.set_defaults(handler=_cmd_show)

    run_parser = sub.add_parser("run", help="run one scenario")
    run_parser.add_argument("scenario", help="registered scenario name")
    _add_override_arguments(run_parser)
    _add_cache_arguments(run_parser, default=False)
    run_parser.add_argument("--json", metavar="PATH",
                            help="write the full ScenarioResult as JSON")
    run_parser.add_argument("--quiet", action="store_true")
    run_parser.set_defaults(handler=_cmd_run)

    profile_parser = sub.add_parser(
        "profile",
        help="run one scenario under cProfile and print the hottest functions")
    profile_parser.add_argument("scenario", help="registered scenario name")
    _add_override_arguments(profile_parser)
    profile_parser.add_argument("--sort", default="cumulative",
                                choices=("cumulative", "tottime", "calls",
                                         "ncalls", "pcalls", "time"),
                                help="pstats sort key (default: cumulative)")
    profile_parser.add_argument("--limit", type=int, default=25, metavar="N",
                                help="number of functions to print "
                                     "(default: 25)")
    profile_parser.add_argument("--json", metavar="PATH",
                                help="write the top functions and run "
                                     "metadata as JSON (CI artifact)")
    profile_parser.add_argument("--quiet", action="store_true")
    profile_parser.set_defaults(handler=_cmd_profile)

    sweep_parser = sub.add_parser(
        "sweep", help="run several scenarios over the process pool")
    sweep_parser.add_argument("scenarios", nargs="*",
                              help="registered scenario names")
    sweep_parser.add_argument("--all", action="store_true",
                              help="sweep every registered scenario")
    sweep_parser.add_argument("--jobs", type=int,
                              help="worker processes (default: REPRO_JOBS "
                                   "or the CPU count)")
    sweep_parser.add_argument("--job-backend", dest="job_backend",
                              metavar="NAME",
                              help="job backend for computed scenarios "
                                   "(serial, local; see 'repro list "
                                   "backends'; default: local)")
    sweep_parser.add_argument("--instructions", type=int, metavar="N")
    sweep_parser.add_argument("--seed", type=int)
    _add_cache_arguments(sweep_parser, default=False)
    sweep_parser.add_argument("--json", metavar="PATH",
                              help="write all results as a JSON array")
    sweep_parser.add_argument("--quiet", action="store_true")
    sweep_parser.set_defaults(handler=_cmd_sweep)

    cache_parser = sub.add_parser(
        "cache", help="inspect/maintain the persistent results store")
    cache_parser.add_argument("action",
                              choices=("ls", "gc", "clear", "verify",
                                       "quarantine"),
                              help="ls: list entries; gc: drop entries from "
                                   "other code fingerprints; clear: drop "
                                   "everything; verify: checksum-scan every "
                                   "entry (quarantines corrupt ones); "
                                   "quarantine: list (or --clear) "
                                   "quarantined files")
    cache_parser.add_argument("--cache-dir", metavar="PATH", dest="cache_dir",
                              help="results-store root (default: "
                                   "REPRO_CACHE_DIR or ~/.cache/repro)")
    cache_parser.add_argument("--clear", action="store_true",
                              help="with 'quarantine': delete the "
                                   "quarantined files after inspection")
    cache_parser.set_defaults(handler=_cmd_cache)

    report_parser = sub.add_parser(
        "report", help="render the paper's figure tables from fresh runs")
    report_sub = report_parser.add_subparsers(dest="family", required=True)
    baseline_parser = report_sub.add_parser(
        "baseline", help="Figures 5-9: base vs GALS at equal clocks")
    baseline_parser.add_argument("--benchmarks", nargs="+")
    baseline_parser.add_argument("--instructions", type=int,
                                 default=DEFAULT_INSTRUCTIONS)
    baseline_parser.add_argument("--jobs", type=int)
    baseline_parser.set_defaults(handler=_cmd_report)
    dvfs_parser = report_sub.add_parser(
        "dvfs", help="Figures 11-13: multiple-clock/voltage case studies")
    dvfs_parser.add_argument("--benchmark",
                             default=DVFS_CASE_STUDY_BENCHMARKS[0])
    dvfs_parser.add_argument("--policies", nargs="+")
    dvfs_parser.add_argument("--instructions", type=int,
                             default=DEFAULT_INSTRUCTIONS)
    dvfs_parser.add_argument("--jobs", type=int)
    dvfs_parser.set_defaults(handler=_cmd_report)
    compare_parser = report_sub.add_parser(
        "compare", help="cross-topology design-space tables (IPC, energy, "
                        "ED, ED2) rendered from cached results")
    compare_parser.add_argument("--topologies", nargs="+",
                                help="topologies to compare (default: all "
                                     "registered)")
    compare_parser.add_argument("--workloads", nargs="+", default=["perl"])
    compare_parser.add_argument("--policies", nargs="+",
                                help="DVFS policies ('none' = uniform "
                                     "clocks; default: none)")
    compare_parser.add_argument("--controllers", nargs="+",
                                help="online DVFS controllers ('none' = "
                                     "static clocking; default: none)")
    compare_parser.add_argument("--instructions", type=int,
                                default=DEFAULT_INSTRUCTIONS)
    compare_parser.add_argument("--seed", type=int, default=1)
    compare_parser.add_argument("--jobs", type=int)
    compare_parser.add_argument("--job-backend", dest="job_backend",
                                metavar="NAME",
                                help="job backend for computed grid cells "
                                     "(serial, local; default: local)")
    _add_cache_arguments(compare_parser, default=True)
    compare_parser.add_argument("--json", metavar="PATH",
                                help="write the metric records as JSON "
                                     "(CI artifact format)")
    compare_parser.set_defaults(handler=_cmd_report)

    serve_parser = sub.add_parser(
        "serve", help="serve the results store over a JSON HTTP API "
                      "(misses are queued on a job backend)")
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address (default: 127.0.0.1)")
    serve_parser.add_argument("--port", type=int, default=8000,
                              help="TCP port; 0 binds an ephemeral port "
                                   "printed on startup (default: 8000)")
    serve_parser.add_argument("--cache-dir", metavar="PATH", dest="cache_dir",
                              help="results-store root (default: "
                                   "REPRO_CACHE_DIR or ~/.cache/repro)")
    serve_parser.add_argument("--job-backend", dest="job_backend",
                              metavar="NAME",
                              help="job backend for queued misses (serial, "
                                   "local; default: local)")
    serve_parser.add_argument("--jobs", type=int,
                              help="worker processes for the job backend "
                                   "(default: REPRO_JOBS or the CPU count)")
    serve_parser.add_argument("--poll-interval", type=float, default=0.25,
                              dest="poll_interval", metavar="SECONDS",
                              help="miss-batching window of the background "
                                   "sweep thread (default: 0.25)")
    serve_parser.add_argument("--quiet", action="store_true",
                              help="suppress per-request access logging")
    serve_parser.set_defaults(handler=_cmd_serve)

    query_parser = sub.add_parser(
        "query", help="query a running 'repro serve' for one scenario")
    query_parser.add_argument("scenario", help="registered scenario name")
    _add_override_arguments(query_parser)
    query_parser.add_argument("--url", default="http://127.0.0.1:8000",
                              help="service base URL "
                                   "(default: http://127.0.0.1:8000)")
    query_parser.add_argument("--wait", type=float, default=0.0,
                              metavar="SECONDS",
                              help="keep polling a 202 (queued miss) up to "
                                   "this long (default: return immediately)")
    query_parser.add_argument("--poll", type=float, default=0.2,
                              metavar="SECONDS",
                              help="poll interval while waiting "
                                   "(default: 0.2)")
    query_parser.add_argument("--json", metavar="PATH",
                              help="write the served ScenarioResult JSON "
                                   "(byte-identical to repro run --json)")
    query_parser.add_argument("--quiet", action="store_true")
    query_parser.set_defaults(handler=_cmd_query)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except KeyError as exc:
        # registry lookups raise KeyError with a helpful message
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, OSError) as exc:
        # TypeError covers non-numeric override values (--slowdown fetch=abc)
        # and misspelled --config fields reaching dataclasses.replace
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
