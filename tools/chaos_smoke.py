#!/usr/bin/env python3
"""CI chaos test: the local process pool under a deterministic fault storm.

Drives a ``local``-backend :func:`repro.results.resume_sweep` through
pool-worker kills, an injected ``OSError`` and a torn entry write (one
seeded :class:`repro.exec.faults.FaultPlan`), then asserts the
*bit-identity contract*: the design-space records and table of the stormed
store are byte-identical to a clean serial run's.

The storm, step by step (every fault scheduled by the plan, so the run
replays identically):

1. **clean run** -- the design-space grid on the ``serial`` backend into
   store A; its records/table are the reference bytes;
2. **stormed sweep** -- the same grid on the ``local`` pool into store B.
   Every pool worker dies (``os._exit(137)``, the SIGKILL shape) at the
   start of its second job: the pool breaks, is rebuilt up to
   ``max_retries`` times and finally degrades to running in the parent.
   Meanwhile the parent's second entry write is torn and its fourth raises
   a transient ``OSError``, which interrupts the sweep;
3. **resume** -- a second ``resume_sweep`` over store B: the torn entry is
   quarantined on read and recomputed, the cells the interruption left
   missing are computed (the pool workers still die on schedule);
4. **verdict** -- records/table must equal the clean run's bytes, ``repro
   cache verify`` semantics must report every entry ok, and the fault log
   must show the storm actually fired (``exit`` from role ``worker``,
   ``raise`` and ``torn``).

Exits nonzero on the first violated expectation.  Usage::

    python tools/chaos_smoke.py [--instructions N] [--fault-log PATH]
"""

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.analysis.report import design_space_records, design_space_table
from repro.core.experiments import design_space_scenarios
from repro.exec import ExecutionConfig
from repro.exec.faults import (FAULT_LOG_ENV_VAR, FAULT_PLAN_ENV_VAR,
                               FaultPlan, FaultRule)
from repro.results import ResultsStore, resume_sweep

#: Processes in the stormed local pool.
POOL_WORKERS = 2

#: Pool workers die on their second job; the parent's store writes tear
#: once and fail once.
STORM = FaultPlan(seed=1202, rules=(
    FaultRule(site="pool.run", action="exit", hits=(1,), role="worker",
              message="injected pool-worker death mid-job"),
    FaultRule(site="store.put", action="torn", hits=(1,), role="main",
              message="injected torn entry write"),
    FaultRule(site="store.put", action="raise", hits=(3,), role="main",
              message="injected transient store failure"),
))


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def reference_bytes(runs) -> bytes:
    """The canonical bytes of a sweep's records + table (the contract)."""
    outcomes = [run.outcome for run in runs]
    records = design_space_records(outcomes)
    table = design_space_table(outcomes)
    return json.dumps({"records": records, "table": table},
                      sort_keys=True).encode("utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instructions", type=int, default=240)
    parser.add_argument("--fault-log", metavar="PATH",
                        help="write the fired-fault log here (default: "
                             "inside the temp dir; CI uploads it)")
    args = parser.parse_args()

    grid = design_space_scenarios(workloads=["perl"],
                                  num_instructions=args.instructions)
    print(f"design-space grid: {len(grid)} scenarios "
          f"({args.instructions} instructions each)", flush=True)

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as temp:
        workdir = Path(temp)
        fault_log = (Path(args.fault_log).resolve() if args.fault_log
                     else workdir / "faults.jsonl")
        fault_log.unlink(missing_ok=True)

        print("[1/4] clean serial run ...", flush=True)
        clean_runs = resume_sweep(grid, execution=ExecutionConfig(
            backend="serial", store=ResultsStore(root=workdir / "clean")))
        reference = reference_bytes(clean_runs)

        # forked pool workers inherit the plan and the log through the
        # environment; the pool initializer declares them role "worker"
        os.environ[FAULT_PLAN_ENV_VAR] = STORM.to_json()
        os.environ[FAULT_LOG_ENV_VAR] = str(fault_log)
        store = ResultsStore(root=workdir / "chaos")
        execution = ExecutionConfig(backend="local", jobs=POOL_WORKERS,
                                    store=store)
        print("[2/4] stormed local-pool sweep ...", flush=True)
        try:
            resume_sweep(grid, execution=execution)
        except OSError as exc:
            print(f"      interrupted: {exc} "
                  f"({len(store.entries())} entries stored)", flush=True)
        else:
            fail("the injected store failure never interrupted the sweep")

        print("[3/4] resume_sweep over the stormed store ...", flush=True)
        chaos_runs = resume_sweep(grid, execution=execution)
        del os.environ[FAULT_PLAN_ENV_VAR], os.environ[FAULT_LOG_ENV_VAR]
        recomputed = sum(1 for run in chaos_runs if not run.cached)
        print(f"      {recomputed} scenario(s) computed on resume, "
              f"{store.quarantine_count()} torn entr"
              f"{'y' if store.quarantine_count() == 1 else 'ies'} "
              f"quarantined", flush=True)

        print("[4/4] verifying bit-identity and store integrity ...",
              flush=True)
        if reference_bytes(chaos_runs) != reference:
            fail("design-space records/table differ from the clean run")
        stats = store.verify()
        if (stats.checked, stats.ok, stats.quarantined) != (
                len(grid), len(grid), 0):
            fail(f"store verify: {stats.checked} checked, {stats.ok} ok, "
                 f"{stats.quarantined} quarantined; expected {len(grid)} "
                 f"ok")
        events = [json.loads(line)
                  for line in fault_log.read_text().splitlines() if line]
        fired = {(event["action"], event["role"]) for event in events}
        for expected in (("exit", "worker"), ("raise", "main"),
                         ("torn", "main")):
            if expected not in fired:
                fail(f"fault log records no {expected[0]!r} from role "
                     f"{expected[1]!r} -- the storm never fired "
                     f"({sorted(fired)})")
        exits = sum(1 for event in events if event["action"] == "exit")
        print(f"      {len(events)} faults fired ({exits} pool-worker "
              f"exits); results byte-identical; store verifies clean",
              flush=True)

    print("chaos smoke: OK", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
