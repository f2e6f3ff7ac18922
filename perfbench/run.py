"""Run one benchmark workload against the program and print its metrics.

    python3 perfbench/run.py --workload run-long --seed 1 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ledger; ``--workload all`` runs every workload in turn.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (each ``{"value", "unit"}``).  ``--repo`` points at another
tree to measure (default: the checkout holding this file), which is how
``ab.py`` measures two commits with the same benchmark code.

This process never imports the program.  It times a few set-up-only child
processes and one measuring child, each started with ``PYTHONPATH`` at the
measured tree's ``src``; set-up time runs from just before a child starts
to its first timed operation.  Everything the run writes lands under
``.perfbench/`` in the checkout holding this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import measure
import tracing

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
WORK = CHECKOUT / ".perfbench"

WORKLOAD_NAMES = ("run-long", "sweep-cold", "serve-hits")

#: The end-to-end metrics every untraced run reports: (name, unit, better,
#: bound).  ``BENCHMARK.json`` lists the same.  Every workload reports all
#: of them, so each is the workload's own figure of that kind:
#:
#: ============ ===================== ==================== ==================
#: metric       run-long              sweep-cold           serve-hits
#: ============ ===================== ==================== ==================
#: throughput   run_instr_per_s       sweep_instr_per_s    serve_ok_rps_high
#: latency_ms   cli_run_s (in ms)     median sweep wall    hit_ms_p50_high
#: peak_rss_mb  this process + CLI    parent, first sweep  the server
#: ============ ===================== ==================== ==================
#:
#: The bounds sit above the quartile spread seen over ten seeds on a noisy
#: shared 2-CPU host; set-up time has the largest.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("throughput", "1/s", "higher", 0.24),
    ("latency_ms", "ms", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: Set-up-only children per untraced run; with the measuring child's own
#: set-up, ``setup_s`` is the median of one more than this.
SETUP_PROBES = 2

#: A child that outlives this is killed, with everything it started.
CHILD_TIMEOUT_S = 120


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repo", type=Path, default=CHECKOUT,
                        help="tree whose src/ holds the program to measure")
    # internal: the role of a child process and the parent's start mark
    parser.add_argument("--child", choices=("setup", "measure"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--scratch", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------- child
def child_main(args: argparse.Namespace) -> int:
    """Set up one workload; then stop (``setup``) or measure it."""
    import loads  # imports the program: only ever in a child

    context = loads.Context(seed=args.seed, jobs=loads.jobs(),
                            scratch=args.scratch, env=dict(os.environ))
    workload = loads.WORKLOADS[args.workload](context)
    try:
        workload.setup()
        setup_s = time.monotonic() - args.t0
        report: Dict = {"setup_s": setup_s,
                        "kernel_after_setup": measure.sample_kernel()}
        if args.child == "measure":
            if args.trace:
                recorder = tracing.SpanRecorder()
                report.update(workload.trace(args.seconds, recorder))
                recorder.dump(WORK / "spans" /
                              f"{args.workload}-seed{args.seed}.json")
            else:
                report.update(workload.measure(args.seconds))
    finally:
        workload.close()
    checks = workload.checks
    report.update(attempted=checks.attempted, failed=checks.failed,
                  errors=checks.errors)
    print(json.dumps(report))
    return 0


def child_environment(repo: Path, scratch: Path) -> Dict[str, str]:
    """The environment of every program process: the measured tree on the
    path, no inherited ``REPRO_*`` settings, and any default store inside
    this run's scratch directory."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(repo / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["REPRO_CACHE_DIR"] = str(scratch / "default-store")
    return env


def run_child(args: argparse.Namespace, workload: str, role: str,
              env: Dict[str, str], scratch: Path) -> Dict:
    """Start one child, wait for it and return its JSON report, with its
    set-up time also scaled to the reference host speed."""
    kernel_before = measure.sample_kernel()
    command = [sys.executable, str(HERE / "run.py"), "--child", role,
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--repo", str(args.repo), "--scratch", str(scratch),
               "--t0", repr(time.monotonic())]
    process = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                               text=True, cwd=CHECKOUT,
                               start_new_session=True)
    try:
        out, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RuntimeError(f"{workload} {role} child timed out")
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    lines = out.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} {role} child failed "
                           f"(exit {process.returncode})")
    report = json.loads(lines[-1])
    report["setup_ref_s"] = measure.at_reference_speed(
        report["setup_s"], kernel_before, report["kernel_after_setup"])
    return report


def run_workload(args: argparse.Namespace, workload: str) -> Dict:
    """Set-up probes (untraced runs only), then the measuring child."""
    scratch = WORK / f"{workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        env = child_environment(args.repo, scratch)
        setups = [] if args.trace else [
            run_child(args, workload, "setup", env, scratch)["setup_ref_s"]
            for _ in range(SETUP_PROBES)]
        report = run_child(args, workload, "measure", env, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    setups.append(report["setup_ref_s"])
    report["setup_samples"] = setups
    return report


# --------------------------------------------------------------------- report
def end_to_end(report: Dict) -> Dict[str, Dict[str, float]]:
    """The gated metrics of one untraced report, by name with unit."""
    values = dict(report["gated"], setup_s=statistics.median(
        report["setup_samples"]))
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _, _ in END_TO_END}


def layers_of(report: Dict) -> Dict[str, Dict[str, float]]:
    """The per-layer metrics of one traced report, by name with unit."""
    return {name: {"value": report["layers"][name], "unit": unit}
            for name, unit, *_ in tracing.LAYERS}


def fmt(value: float) -> str:
    """A figure with four significant digits."""
    return "0" if value == 0 else f"{value:.4g}"


def print_end_to_end(workload: str, report: Dict) -> None:
    """Every end-to-end figure of one workload by name, unit and samples."""
    setups = report["setup_samples"]
    rows = dict(report["named"])
    rows["setup_s"] = {"value": statistics.median(setups), "unit": "s",
                       "samples": len(setups)}
    rows["fail_frac"] = {"value": report["failed"] / report["attempted"],
                         "unit": "ratio", "samples": report["attempted"]}
    print(f"\n{'=' * 64}\n{workload}: end to end (host time; setup_s and "
          f"run-long scaled to reference host speed)\n{'=' * 64}")
    print(f"  {'metric':<24} {'value':>12} {'unit':<8} {'samples':>8}")
    for name, row in rows.items():
        print(f"  {name:<24} {fmt(row['value']):>12} {row['unit']:<8} "
              f"{row['samples']:>8}")


def print_ledger(reports: Dict[str, Dict]) -> None:
    """The per-layer x per-workload grid, with what each layer should move."""
    names = list(reports)
    print(f"\n{'=' * 100}\nper-layer ledger (traced runs; 0 = layer not "
          f"reached)\n{'=' * 100}")
    header = f"  {'metric':<31} {'unit':<6}" + "".join(
        f" {name:>12}" for name in names) + "  should move"
    print(header)
    print(f"  {'-' * 31} {'-' * 6}" + f" {'-' * 12}" * len(names) + "  "
          + "-" * 20)
    for metric, unit, _, target in tracing.LAYERS:
        cells = "".join(f" {fmt(reports[name]['layers'][metric]):>12}"
                        for name in names)
        print(f"  {metric:<31} {unit:<6}{cells}  {target}")


def result_line(reports: Dict[str, Dict], trace: bool) -> Dict:
    """The final JSON line for one workload (or, keyed by workload, all)."""
    lines = {}
    for name, report in reports.items():
        lines[name] = {
            "correct": report["failed"] == 0,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": layers_of(report) if trace else end_to_end(report),
        }
    return next(iter(lines.values())) if len(lines) == 1 else lines


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    args.repo = args.repo.resolve()
    if not (args.repo / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {args.repo / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    # turn a terminate request into SystemExit, so the child's process
    # group is killed on the way out (see run_child)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    names =WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    reports = {}
    for name in names:
        try:
            reports[name] = run_workload(args, name)
        except RuntimeError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        for message in reports[name]["errors"]:
            print(f"check failed: {name}: {message}", file=sys.stderr)
        if not args.trace:
            print_end_to_end(name, reports[name])
    if args.trace:
        print_ledger(reports)
    print(json.dumps(result_line(reports, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
