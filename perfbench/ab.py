"""Interleaved A/B comparison of two trees with the same benchmark code.

    python3 perfbench/ab.py --parent ../parent --change . --pairs 10

For each workload, pair ``i`` runs both trees on seed ``--seed + i``; which
tree runs first alternates from pair to pair, so a host that slows down
during the comparison penalises both sides alike.  Each tree is measured
by this checkout's ``run.py`` (``--repo``), never by its own copy.

One row per (workload, end-to-end metric): each side's median and
quartiles, the share of pairs the change won, and the verdict of
:func:`measure.compare` -- ``better``, ``worse``, ``same`` or, when the
parent's own spread is wider than the metric's bound, ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import measure
from run import END_TO_END, HERE, WORKLOAD_NAMES

#: Longest a single benchmark run may take, set-up included.
RUN_TIMEOUT_S = 600


def run_once(repo: Path, workload: str, seed: int,
             seconds: float) -> Tuple[Dict[str, float], int]:
    """One untraced benchmark run of ``repo``: (metric values, failed ops)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
         "--repo", str(repo)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{repo} {workload} seed {seed} failed "
                           f"(exit {done.returncode}):\n{done.stderr}")
    result = json.loads(lines[-1])
    return ({name: metric["value"]
             for name, metric in result["metrics"].items()},
            result["failed"])


def compare_workload(parent: Path, change: Path, workload: str, pairs: int,
                     seed: int, seconds: float) -> List[Dict]:
    """Run ``pairs`` interleaved pairs and judge every end-to-end metric."""
    runs: Dict[str, List[Dict[str, float]]] = {"parent": [], "change": []}
    failed = {"parent": 0, "change": 0}
    for index in range(pairs):
        sides = [("parent", parent), ("change", change)]
        if index % 2:
            sides.reverse()
        for side, repo in sides:
            values, side_failed = run_once(repo, workload, seed + index,
                                           seconds)
            runs[side].append(values)
            failed[side] += side_failed
    rows = []
    for name, unit, better, bound in END_TO_END:
        judged = measure.compare([run[name] for run in runs["parent"]],
                                 [run[name] for run in runs["change"]],
                                 better, bound)
        verdict = judged.verdict
        if verdict == "better" and failed["change"] > failed["parent"]:
            verdict = "same"  # a gain does not count with more failures
        rows.append({"workload": workload, "metric": name, "unit": unit,
                     "bound": bound, "parent": judged.parent,
                     "change": judged.change, "win_frac": judged.win_frac,
                     "verdict": verdict, "failed": dict(failed)})
    return rows


def print_rows(rows: List[Dict]) -> None:
    """The comparison table: medians with [first, third] quartiles."""
    def side(q: Tuple[float, float, float]) -> str:
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    print(f"  {'workload':<11} {'metric':<12} {'unit':<5} "
          f"{'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} "
          f"{'wins':>5} {'bound':>5}  verdict")
    for row in rows:
        print(f"  {row['workload']:<11} {row['metric']:<12} {row['unit']:<5} "
              f"{side(row['parent']):>30} {side(row['change']):>30} "
              f"{row['win_frac']:>5.2f} {row['bound']:>5.2f}  "
              f"{row['verdict']}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="tree of the parent commit (holds src/repro)")
    parser.add_argument("--change", type=Path, required=True,
                        help="tree of the change (holds src/repro)")
    parser.add_argument("--workload", action="append",
                        choices=WORKLOAD_NAMES,
                        help="workload to compare (repeatable; default all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    rows: List[Dict] = []
    for workload in args.workload or WORKLOAD_NAMES:
        rows.extend(compare_workload(args.parent.resolve(),
                                     args.change.resolve(), workload,
                                     args.pairs, args.seed, args.seconds))
    print_rows(rows)
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
