"""The benchmark's workloads, run inside one measuring process.

Each workload has a ``setup`` (everything before the first timed operation),
a ``measure`` (untraced: the end-to-end metrics) and a ``trace`` (the
per-layer metrics, with traced and untraced work alternating so the
tracing overhead is measured too).  The program only ever receives the
scenarios built here; sweep-cold and serve-hits derive their workload
seeds from the benchmark's ``--seed``.

* ``run-long`` -- one client running long in-process simulations back to
  back, plus fresh ``repro run`` processes: the simulation core and the
  import cost of the command line.  Both are timed single-threaded, so
  their times are scaled to the reference host speed
  (:class:`measure.HostSpeed`).
* ``sweep-cold`` -- one cold ``resume_sweep`` after another on the local
  process pool: phased workload synthesis, pool start, result pickling and
  store writes.
* ``serve-hits`` -- fixed-rate ``/scenario`` hits against ``repro serve``:
  no simulation, only the store's read path and HTTP.
"""

from __future__ import annotations

import hashlib
import os
import random
import re
import resource
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlencode

from repro.core.scenario import (Scenario, ScenarioResult, available_scenarios,
                                 get_scenario, run_scenario)
from repro.exec import ExecutionConfig
from repro.results import SweepRun, resume_sweep
from repro.results.store import ResultsStore
from repro.serve.service import ResultsService

import measure
import tracing

#: run-long keeps the registered scenarios' own workload seed: simulation
#: speed differs by about 16% (standard deviation, 16 seeds measured) from
#: one perl seed to the next, so seeds drawn from ``--seed`` would make the
#: run-to-run spread measure the draw.  ``--seed`` picks which scenario
#: starts the rotation.
RUN_LONG_SCENARIOS = ("gals5", "base", "cluster2-perl", "gals5-perl-occupancy")
RUN_LONG_INSTRUCTIONS = 20_000
#: ``repro run`` processes launched after each rotation of in-process runs,
#: at the command line's default trace length.
CLI_SCENARIO = "gals5"
CLI_RUNS_PER_ROTATION = 3

SWEEP_MIXES = ("intfp-osc", "calm-storm", "membound-osc", "hotset-perl")
SWEEP_TOPOLOGIES = ("base", "gals5", "cluster2")
SWEEP_INSTRUCTIONS = 5000
SWEEP_TOTAL_INSTRUCTIONS = (SWEEP_INSTRUCTIONS * len(SWEEP_MIXES)
                            * len(SWEEP_TOPOLOGIES))

#: serve-hits pre-warms every registered scenario at this many seeds.
SERVE_SEEDS = 5
SERVE_INSTRUCTIONS = 500
#: Offered rates (requests per second): about a fifth and two thirds of
#: what one serial client got from the service when the benchmark was
#: defined, so ``high`` shows queueing without saturating it.
SERVE_RATES = {"low": 100.0, "high": 350.0}
#: A hit answered later than this after it was due counts as failed.
LATENCY_LIMIT_S = 0.1
ZIPF_EXPONENT = 1.1
#: Hits per replay chunk of the traced serve-hits run (chunks alternate
#: between traced and untraced).
REPLAY_CHUNK = 200

IMPORT_PROBE = ("import time; start = time.perf_counter(); import repro.cli; "
                "print(time.perf_counter() - start)")
IMPORT_PROBES = 5


# -------------------------------------------------------------------- helpers
@dataclass
class Context:
    """What every workload needs: the seed, worker count and places."""

    seed: int
    jobs: int
    scratch: Path
    env: Dict[str, str]


@dataclass
class Checks:
    """Operations attempted and failed, with the first few failures."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)


def named(value: float, unit: str, samples: int) -> Dict[str, float]:
    """One reported end-to-end figure."""
    return {"value": value, "unit": unit, "samples": samples}


def own_peak_rss_mb() -> float:
    """Peak RSS of this process or any child it has waited for, in MB."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def process_peak_rss_mb(pid: int) -> float:
    """Peak RSS (``VmHWM``) of a running process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise OSError(f"no VmHWM for process {pid}")


def import_seconds(env: Dict[str, str]) -> float:
    """Median time to ``import repro.cli`` in a fresh interpreter."""
    samples = []
    for _ in range(IMPORT_PROBES):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                               capture_output=True, text=True, timeout=60,
                               check=True)
        samples.append(float(probe.stdout.strip()))
    return statistics.median(samples)


def model_statistics(outcomes: Sequence[ScenarioResult]) -> Dict[str, float]:
    """Deterministic model statistics over a fixed set of runs."""
    results = [outcome.result for outcome in outcomes]
    fetched = sum(result.fetched_instructions for result in results)
    return {
        "uarch.ipc": statistics.fmean(result.ipc for result in results),
        "uarch.recoveries": float(sum(result.recoveries
                                      for result in results)),
        "uarch.wrong_path_frac":
            sum(result.wrong_path_fetched for result in results) / fetched
            if fetched else 0.0,
    }


def layer_metrics(recorder: tracing.SpanRecorder, instructions_per_op: int,
                  extra: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric: span medians, derived ratios, then ``extra``;
    layers the workload does not reach read 0."""
    layers = {name: 0.0 for name, *_ in tracing.LAYERS}
    layers.update(tracing.span_metrics(recorder))
    events = [value for (_, name), value in recorder.counts.items()
              if name == "sim.events"]
    if events:
        # the first unit of work's count, which repeats exactly run to run
        layers["sim.events"] = events[0]
        layers["sim.events_per_instr"] = events[0] / instructions_per_op
        run_s = sum(span.end - span.start for span in recorder.spans
                    if span.name == "core.processor.run")
        layers["sim.ns_per_event"] = run_s * 1e9 / sum(events)
    layers.update(extra)
    return layers


def repeat_for(seconds: float, step: Callable[[int], None]) -> None:
    """Call ``step(0)``, ``step(1)``, ... -- at least twice -- while the
    next call, taking as long as the last, would end within ``seconds``."""
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        start = time.perf_counter()
        step(index)
        index += 1
        if index >= 2 and 2 * time.perf_counter() - start > deadline:
            return


def alternate(seconds: float, traced: Callable[[int], float],
              untraced: Callable[[int], float]) -> float:
    """Alternate traced and untraced rounds for about ``seconds``; returns
    median traced wall over median untraced wall."""
    walls: Tuple[List[float], List[float]] = ([], [])

    def step(index: int) -> None:
        run = untraced if index % 2 else traced
        walls[index % 2].append(run(index))

    repeat_for(seconds, step)
    return statistics.median(walls[0]) / statistics.median(walls[1])


# ------------------------------------------------------------------- run-long
class RunLong:
    """Serial in-process runs in a fixed rotation, plus ``repro run``
    processes; no store."""

    def __init__(self, context: Context) -> None:
        self.context = context
        self.checks = Checks()
        self.digests: Dict[str, str] = {}
        self.cli_output = context.scratch / "cli-run.json"

    def setup(self) -> None:
        start = self.context.seed % len(RUN_LONG_SCENARIOS)
        names = RUN_LONG_SCENARIOS[start:] + RUN_LONG_SCENARIOS[:start]
        self.scenarios = [replace(get_scenario(name),
                                  num_instructions=RUN_LONG_INSTRUCTIONS)
                          for name in names]
        for scenario in self.scenarios:
            scenario.build_trace()  # warm the workload memo
        self.cli_expected = run_scenario(CLI_SCENARIO).to_json()

    def rotation(self, run: Callable[[Scenario], ScenarioResult],
                 scale: Callable[[], float] = lambda: 1.0
                 ) -> Tuple[float, List[ScenarioResult]]:
        """Run and encode every scenario once; (the sum of each run's wall
        seconds times ``scale()`` called right after it, outcomes)."""
        encoded = []
        wall = 0.0
        for scenario in self.scenarios:
            start = time.perf_counter()
            outcome = run(scenario)
            encoded.append((outcome, outcome.to_json()))
            wall += (time.perf_counter() - start) * scale()
        for outcome, text in encoded:
            name = outcome.scenario.name
            digest = hashlib.sha256(text.encode()).hexdigest()
            first = self.digests.setdefault(name, digest)
            self.checks.record(
                digest == first and outcome.result.committed_instructions
                == RUN_LONG_INSTRUCTIONS,
                f"{name}: output differs from its first run or is short")
        return wall, [outcome for outcome, _ in encoded]

    def cli_run(self) -> float:
        """One fresh ``repro run --json`` process; its wall seconds."""
        command = [sys.executable, "-m", "repro", "run", CLI_SCENARIO,
                   "--json", str(self.cli_output)]
        start = time.perf_counter()
        done = subprocess.run(command, env=self.context.env,
                              stdout=subprocess.DEVNULL, timeout=60)
        wall = time.perf_counter() - start
        ok = (done.returncode == 0 and self.cli_output.exists()
              and self.cli_output.read_text() == self.cli_expected)
        self.checks.record(ok, "repro run --json output differs from the "
                               "in-process result")
        self.cli_output.unlink(missing_ok=True)
        return wall

    def cycles(self, seconds: float, rotate: Callable[[int], None],
               scale: Callable[[], float]) -> List[float]:
        """Rotations, each followed by the CLI runs, for about ``seconds``;
        returns each CLI wall time times ``scale()`` called right after it."""
        cli: List[float] = []

        def cycle(index: int) -> None:
            rotate(index)
            for _ in range(CLI_RUNS_PER_ROTATION):
                wall = self.cli_run()
                cli.append(wall * scale())

        repeat_for(seconds, cycle)
        return cli

    def measure(self, seconds: float) -> Dict:
        speed = measure.HostSpeed()
        walls: List[float] = []

        def rotate(index: int) -> None:
            walls.append(self.rotation(run_scenario, speed.factor)[0])

        cli = self.cycles(seconds, rotate, speed.factor)
        instructions = RUN_LONG_INSTRUCTIONS * len(RUN_LONG_SCENARIOS)
        rate = statistics.median(instructions / wall for wall in walls)
        cli_s = statistics.median(cli)
        rss = own_peak_rss_mb()
        return {
            "named": {
                "run_instr_per_s": named(rate, "instr/s", len(walls)),
                "cli_run_s": named(cli_s, "s", len(cli)),
                "peak_rss_mb": named(rss, "MB", 1),
                "host_speed": named(speed.speed(), "ratio",
                                    len(speed.factors)),
            },
            "gated": {"throughput": rate, "latency_ms": cli_s * 1e3,
                      "peak_rss_mb": rss},
        }

    def trace(self, seconds: float, recorder: tracing.SpanRecorder) -> Dict:
        first: List[ScenarioResult] = []
        walls: Tuple[List[float], List[float]] = ([], [])

        def traced_run(scenario: Scenario) -> ScenarioResult:
            return recorder.call("core.scenario.run_scenario", run_scenario,
                                 scenario)

        def rotate(index: int) -> None:
            if index % 2:
                walls[1].append(self.rotation(run_scenario)[0])
                return
            undo = tracing.install(recorder)
            try:
                with recorder.op(f"rotation{index}"):
                    wall, outcomes = self.rotation(traced_run)
            finally:
                undo()
            walls[0].append(wall)
            first[:] = first or outcomes

        cli = self.cycles(seconds, rotate, lambda: 1.0)
        extra = model_statistics(first)
        extra["cli.import_s"] = import_seconds(self.context.env)
        extra["cli.run_s"] = statistics.median(cli)
        extra["trace.overhead_frac"] = (statistics.median(walls[0])
                                        / statistics.median(walls[1]))
        return {"layers": layer_metrics(
            recorder, RUN_LONG_INSTRUCTIONS * len(RUN_LONG_SCENARIOS), extra)}

    def close(self) -> None:
        self.cli_output.unlink(missing_ok=True)


# ----------------------------------------------------------------- sweep-cold
class SweepCold:
    """Cold sweeps of phased mixes x topologies on the local process pool,
    each with a fresh store and a fresh workload seed."""

    def __init__(self, context: Context) -> None:
        self.context = context
        self.checks = Checks()
        self.sweeps = 0

    def setup(self) -> None:
        self.execution = ExecutionConfig(backend="local",
                                         jobs=self.context.jobs)

    def sweep(self) -> Tuple[float, List[SweepRun]]:
        """One ``resume_sweep`` into an empty store; (wall seconds, runs)."""
        seed = self.context.seed + self.sweeps
        self.sweeps += 1
        grid = [Scenario(name=f"{mix}@{topology}", topology=topology,
                         workload=f"phased:{mix}",
                         num_instructions=SWEEP_INSTRUCTIONS, seed=seed)
                for mix in SWEEP_MIXES for topology in SWEEP_TOPOLOGIES]
        root = Path(tempfile.mkdtemp(prefix="sweep-",
                                     dir=self.context.scratch))
        try:
            store = ResultsStore(root=root)
            start = time.perf_counter()
            runs = resume_sweep(grid, store=store, execution=self.execution)
            wall = time.perf_counter() - start
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return wall, runs

    def check(self, runs: Sequence[SweepRun]) -> None:
        """Every cell computed in full; one sampled cell byte-identical to a
        serial in-process run of the same scenario."""
        seed = runs[0].outcome.scenario.seed
        cell = runs[random.Random(seed).randrange(len(runs))].outcome
        expected = run_scenario(cell.scenario).to_json()
        self.checks.record(
            len(runs) == len(SWEEP_MIXES) * len(SWEEP_TOPOLOGIES)
            and all(not run.cached
                    and run.outcome.result.committed_instructions
                    == SWEEP_INSTRUCTIONS for run in runs)
            and cell.to_json() == expected,
            f"sweep seed {seed}: cell {cell.scenario.name} differs from a "
            "serial run, or a cell is cached or short")

    def measure(self, seconds: float) -> Dict:
        walls: List[float] = []
        rss: List[float] = []

        def step(_: int) -> None:
            wall, runs = self.sweep()
            walls.append(wall)
            # every sweep leaves its fresh workloads in the parent's memo,
            # so only the first sweep's peak is the same from run to run
            rss[:] = rss or [resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024]
            self.check(runs)

        repeat_for(seconds, step)
        rate = statistics.median(SWEEP_TOTAL_INSTRUCTIONS / wall
                                 for wall in walls)
        wall_ms = statistics.median(walls) * 1e3
        rss = rss[0]
        return {
            "named": {
                "sweep_instr_per_s": named(rate, "instr/s", len(walls)),
                "sweep_wall_ms": named(wall_ms, "ms", len(walls)),
                "peak_rss_mb": named(rss, "MB", 1),
            },
            "gated": {"throughput": rate, "latency_ms": wall_ms,
                      "peak_rss_mb": rss},
        }

    def trace(self, seconds: float, recorder: tracing.SpanRecorder) -> Dict:
        first: List[ScenarioResult] = []
        compute: List[Tuple[float, float]] = []

        def traced(index: int) -> float:
            undo = tracing.install(recorder)
            try:
                with recorder.op(f"sweep{index}"):
                    wall, runs = self.sweep()
            finally:
                undo()
            self.check(runs)
            compute.append((sum(run.seconds for run in runs), wall))
            first[:] = first or [run.outcome for run in runs]
            return wall

        def untraced(index: int) -> float:
            wall, runs = self.sweep()
            self.check(runs)
            return wall

        overhead = alternate(seconds, traced, untraced)
        extra = model_statistics(first)
        extra["cli.import_s"] = import_seconds(self.context.env)
        extra["exec.compute_s_sum"] = statistics.median(c for c, _ in compute)
        extra["exec.parallel_eff"] = statistics.median(
            c / (self.context.jobs * wall) for c, wall in compute)
        extra["trace.overhead_frac"] = overhead
        return {"layers": layer_metrics(recorder, SWEEP_TOTAL_INSTRUCTIONS,
                                        extra)}

    def close(self) -> None:
        pass


# ----------------------------------------------------------------- serve-hits
class ServeHits:
    """Open-loop ``/scenario`` hits at two fixed rates against a
    ``repro serve`` process over a pre-warmed store."""

    def __init__(self, context: Context) -> None:
        self.context = context
        self.checks = Checks()
        self.server: Optional[subprocess.Popen] = None
        self.store_root: Optional[Path] = None
        self.sent: List[int] = []  # every key sent over HTTP, in order

    def setup(self) -> None:
        context = self.context
        self.store_root = Path(tempfile.mkdtemp(prefix="serve-",
                                                dir=context.scratch))
        self.scenarios = [replace(get_scenario(name),
                                  num_instructions=SERVE_INSTRUCTIONS,
                                  seed=context.seed + offset)
                          for name in available_scenarios()
                          for offset in range(SERVE_SEEDS)]
        runs = resume_sweep(self.scenarios,
                            store=ResultsStore(root=self.store_root),
                            execution=ExecutionConfig(backend="local",
                                                      jobs=context.jobs))
        self.expected = [run.outcome.to_json() for run in runs]
        self.expected_bytes = [text.encode() for text in self.expected]
        self.requests = [
            (f"GET /scenario?"
             f"{urlencode({'scenario': scenario.to_json(indent=None)})} "
             "HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n").encode()
            for scenario in self.scenarios]
        popularity = list(range(len(self.scenarios)))
        random.Random(context.seed).shuffle(popularity)
        self.popularity = popularity
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--quiet",
             "--cache-dir", str(self.store_root)],
            env=context.env, stdout=subprocess.PIPE, text=True)
        self.address = self._handshake()

    def _handshake(self) -> Tuple[str, int]:
        """Read the server's URL line (it binds an ephemeral port)."""
        ready, _, _ = select.select([self.server.stdout], [], [], 60)
        line = self.server.stdout.readline() if ready else ""
        found = re.search(r"http://([\d.]+):(\d+)", line)
        if found is None:
            raise RuntimeError(f"repro serve did not start: {line!r}")
        return found.group(1), int(found.group(2))

    def keys(self, phase: str, count: int) -> List[int]:
        """Zipf-popular scenario indices for one phase."""
        weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT
                   for rank in range(len(self.popularity))]
        rng = random.Random(f"{self.context.seed}:{phase}")
        return rng.choices(self.popularity, weights=weights, k=count)

    def send(self, key: int) -> Tuple[int, bool]:
        """One HTTP hit; (status or 0 on a connection failure, body ok)."""
        try:
            with socket.create_connection(self.address, timeout=10) as conn:
                conn.sendall(self.requests[key])
                chunks = []
                while True:
                    chunk = conn.recv(65536)
                    if not chunk:
                        break
                    chunks.append(chunk)
        except OSError:
            return 0, False
        head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
        parts = head.split(b" ", 2)
        status = int(parts[1]) if len(parts) > 1 and parts[1].isdigit() else 0
        return status, status == 200 and body == self.expected_bytes[key]

    def phase(self, name: str, seconds: float) -> measure.LoadSummary:
        """Offer ``SERVE_RATES[name]`` for ``seconds``; every reply counts."""
        rate = SERVE_RATES[name]
        keys = self.keys(name, max(1, round(rate * seconds)))
        self.sent.extend(keys)
        replies = measure.run_open_loop(lambda i: self.send(keys[i]),
                                        len(keys), rate, self.context.jobs)
        summary = measure.summarize_load(replies, LATENCY_LIMIT_S)
        for reply in replies:
            self.checks.record(
                reply.status == 200 and reply.body_ok
                and reply.latency <= LATENCY_LIMIT_S,
                f"{name}: status {reply.status}, body ok {reply.body_ok}, "
                f"{reply.latency * 1e3:.1f} ms from due")
        return summary

    def measure(self, seconds: float) -> Dict:
        low = self.phase("low", seconds / 2)
        high = self.phase("high", seconds / 2)
        rss = process_peak_rss_mb(self.server.pid)
        report = {}
        for label, summary in (("low", low), ("high", high)):
            report[f"hit_ms_p50_{label}"] = named(summary.p50_ms, "ms",
                                                  summary.samples)
            if summary.tail is not None:
                report[f"hit_ms_{measure.percentile_label(summary.tail)}_"
                       f"{label}"] = named(summary.tail_ms, "ms",
                                           summary.samples)
        report["serve_ok_rps_high"] = named(high.good_per_s, "1/s",
                                            high.samples)
        report["gen_lag_ms_p99_high"] = named(high.lag_p99_ms, "ms",
                                              high.samples)
        report["peak_rss_mb"] = named(rss, "MB", 1)
        return {
            "named": report,
            "gated": {"throughput": high.good_per_s,
                      "latency_ms": high.p50_ms, "peak_rss_mb": rss},
        }

    def trace(self, seconds: float, recorder: tracing.SpanRecorder) -> Dict:
        low = self.phase("low", seconds / 4)
        high = self.phase("high", seconds / 4)
        statuses: Dict[int, int] = {}
        for summary in (low, high):
            for status, count in summary.statuses:
                statuses[status] = statuses.get(status, 0) + count

        # replay the keys just sent over HTTP, in order and cyclically
        service = ResultsService(store=ResultsStore(root=self.store_root),
                                 execution=ExecutionConfig(backend="serial"))
        replayed = [0]

        def replay(traced: bool) -> float:
            first = replayed[0]
            keys = [self.sent[(first + offset) % len(self.sent)]
                    for offset in range(REPLAY_CHUNK)]
            replayed[0] += REPLAY_CHUNK
            bodies = []
            start = time.perf_counter()
            for offset, key in enumerate(keys):
                if traced:
                    with recorder.op(f"hit{first + offset}"):
                        bodies.append(service.lookup(self.scenarios[key]))
                else:
                    bodies.append(service.lookup(self.scenarios[key]))
            wall = time.perf_counter() - start
            for key, (status, _, body) in zip(keys, bodies):
                self.checks.record(
                    status == "hit" and body == self.expected[key],
                    f"in-process lookup: {status}")
            return wall

        def traced(_: int) -> float:
            undo = tracing.install(recorder)
            try:
                return replay(True)
            finally:
                undo()

        overhead = alternate(seconds / 2, traced, lambda _: replay(False))
        layers = layer_metrics(recorder, 1, {
            "cli.import_s": import_seconds(self.context.env),
            "trace.overhead_frac": overhead,
            "serve.gen_lag_ms_p99": high.lag_p99_ms,
            "serve.status_200": float(statuses.get(200, 0)),
            "serve.status_202": float(statuses.get(202, 0)),
            "serve.status_429": float(statuses.get(429, 0)),
            "serve.status_5xx": float(sum(count for status, count
                                          in statuses.items()
                                          if 500 <= status < 600)),
        })
        layers["serve.http_overhead_us"] = (low.p50_ms * 1e3
                                            - layers["serve.lookup_us"])
        return {"layers": layers}

    def close(self) -> None:
        if self.server is not None:
            if self.server.poll() is None:
                self.server.send_signal(signal.SIGINT)
                try:
                    self.server.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    self.server.kill()
                    self.server.wait()
            if self.server.stdout is not None:
                self.server.stdout.close()
            self.server = None
        if self.store_root is not None:
            shutil.rmtree(self.store_root, ignore_errors=True)
            self.store_root = None


WORKLOADS = {"run-long": RunLong, "sweep-cold": SweepCold,
             "serve-hits": ServeHits}


def jobs() -> int:
    """Worker count: the CPUs this process may run on (``nproc``)."""
    return len(os.sched_getaffinity(0))
