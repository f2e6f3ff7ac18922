"""Span recorder and the run-time wrappers that trace the program's layers.

The benchmark measures the program from outside: it wraps the public calls
into each layer at run time (:func:`install`) and never edits the program.
A span holds a name, start, end, its parent span and the request (one unit
of workload work) it belongs to.  Spans stay in memory and are written out
when the benchmark ends; per-layer metrics come from their totals and self
times, per request.

The recorder is single-threaded: spans are recorded only inside
:meth:`SpanRecorder.op`, and every workload calls the traced layers from the
thread that opened the op.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

#: Every per-layer metric: (name, unit, which direction is better, the
#: end-to-end metric and workload it should move).  ``BENCHMARK.json``
#: lists the same names, units and directions.  Unless a row says
#: otherwise, a value is the median over the workload's units of work -- a
#: rotation of four runs (run-long), one sweep (sweep-cold) or one hit
#: (serve-hits) -- and reads 0 on a workload that does not reach the layer.
LAYERS: Tuple[Tuple[str, str, str, str], ...] = (
    ("cli.import_s", "s", "lower",
     "cli_run_s (run-long), setup_s (all); not hit_ms_*"),
    ("cli.run_s", "s", "lower",
     "cli_run_s (run-long); unscaled, so cli.import_s is a share of it"),
    ("workloads.build_s", "s", "lower",
     "sweep_instr_per_s (sweep-cold), setup_s (serve-hits)"),
    ("workloads.calls", "count", "lower",
     "sweep_instr_per_s (sweep-cold), setup_s (serve-hits)"),
    ("core.scenario.resolve_s", "s", "lower", "run_instr_per_s (run-long)"),
    ("core.processor.build_s", "s", "lower", "run_instr_per_s (run-long)"),
    ("core.processor.run_s", "s", "lower",
     "run_instr_per_s (run-long), then sweep_instr_per_s"),
    ("sim.events", "count", "lower",
     "run_instr_per_s (run-long), then sweep_instr_per_s"),
    ("sim.events_per_instr", "ratio", "lower",
     "run_instr_per_s (run-long), then sweep_instr_per_s"),
    ("sim.ns_per_event", "ns", "lower",
     "run_instr_per_s (run-long), then sweep_instr_per_s"),
    ("uarch.ipc", "ratio", "higher", "model statistic: must not change"),
    ("uarch.recoveries", "count", "lower", "model statistic: must not change"),
    ("uarch.wrong_path_frac", "ratio", "lower",
     "model statistic: must not change"),
    ("results.encode_s", "s", "lower", "run_instr_per_s (run-long)"),
    ("exec.warm_s", "s", "lower", "sweep_instr_per_s (sweep-cold)"),
    ("exec.submit_s", "s", "lower", "sweep_instr_per_s (sweep-cold)"),
    ("exec.wait_s", "s", "lower", "sweep_instr_per_s (sweep-cold)"),
    ("exec.compute_s_sum", "s", "lower", "sweep_instr_per_s (sweep-cold)"),
    ("exec.parallel_eff", "ratio", "higher", "sweep_instr_per_s (sweep-cold)"),
    ("results.store.get_s", "s", "lower", "sweep_instr_per_s (sweep-cold)"),
    ("results.store.put_s", "s", "lower", "sweep_instr_per_s (sweep-cold)"),
    ("results.store.puts", "count", "lower", "sweep_instr_per_s (sweep-cold)"),
    ("results.store.bytes_written", "bytes", "lower",
     "sweep_instr_per_s (sweep-cold)"),
    ("serve.lookup_us", "us", "lower",
     "hit_ms_p50_*, serve_ok_rps_high (serve-hits)"),
    ("results.store.key_for_us", "us", "lower",
     "hit_ms_p50_*, serve_ok_rps_high (serve-hits)"),
    ("results.store.key_for_per_hit", "count", "lower",
     "hit_ms_p50_*, serve_ok_rps_high (serve-hits)"),
    ("results.store.get_us", "us", "lower",
     "hit_ms_p50_*, serve_ok_rps_high (serve-hits)"),
    ("core.scenario.to_json_us", "us", "lower",
     "hit_ms_p50_*, serve_ok_rps_high (serve-hits)"),
    ("serve.http_overhead_us", "us", "lower", "hit_ms_p99_high (serve-hits)"),
    ("serve.gen_lag_ms_p99", "ms", "lower", "hit_ms_p99_high (serve-hits)"),
    ("serve.status_200", "count", "higher", "fail_frac (serve-hits)"),
    ("serve.status_202", "count", "lower", "fail_frac (serve-hits)"),
    ("serve.status_429", "count", "lower", "fail_frac (serve-hits)"),
    ("serve.status_5xx", "count", "lower", "fail_frac (serve-hits)"),
    ("trace.op_wall_s", "s", "lower",
     "none: one traced unit of work, the base of every layer's share"),
    ("trace.overhead_frac", "ratio", "lower",
     "none: traced wall / untraced wall"),
)

#: Span-derived metrics: metric -> (span name, what to take per request,
#: scale).  ``total`` is the span's whole duration, ``self`` its duration
#: minus what its child spans cover, ``calls`` the number of spans.
SPAN_METRICS: Dict[str, Tuple[str, str, float]] = {
    "workloads.build_s": ("workloads.build", "total", 1.0),
    "workloads.calls": ("workloads.build", "calls", 1.0),
    "core.scenario.resolve_s": ("core.scenario.run_scenario", "self", 1.0),
    "core.processor.build_s": ("core.processor.build", "total", 1.0),
    "core.processor.run_s": ("core.processor.run", "total", 1.0),
    "results.encode_s": ("core.scenario.to_json", "total", 1.0),
    "exec.warm_s": ("exec.warm", "total", 1.0),
    "exec.submit_s": ("exec.submit", "total", 1.0),
    "exec.wait_s": ("exec.wait", "total", 1.0),
    "results.store.get_s": ("results.store.get", "self", 1.0),
    "results.store.put_s": ("results.store.put", "self", 1.0),
    "results.store.puts": ("results.store.put", "calls", 1.0),
    "serve.lookup_us": ("serve.lookup", "total", 1e6),
    "results.store.key_for_us": ("results.store.key_for", "total", 1e6),
    "results.store.key_for_per_hit": ("results.store.key_for", "calls", 1.0),
    "results.store.get_us": ("results.store.get", "self", 1e6),
    "core.scenario.to_json_us": ("core.scenario.to_json", "total", 1e6),
    "trace.op_wall_s": ("op", "total", 1.0),
}

#: Counter-derived metrics: metric -> counter name (median per request).
COUNT_METRICS: Dict[str, str] = {
    "results.store.bytes_written": "results.store.bytes_written",
}


# ---------------------------------------------------------------------- spans
@dataclass
class Span:
    """One traced call; ``parent`` indexes the recorder's spans (-1: root)."""

    name: str
    start: float
    end: float
    parent: int
    request: str


def self_time(start: float, end: float,
              children: Sequence[Tuple[float, float]]) -> float:
    """Duration of ``[start, end]`` not covered by any child interval.

    Children may overlap each other or stick out of the parent; only the
    union of their parts inside the parent is subtracted.
    """
    covered = 0.0
    reach = start
    for low, high in sorted(children):
        low, high = max(low, reach), min(high, end)
        if high > low:
            covered += high - low
            reach = high
    return end - start - covered


class SpanRecorder:
    """In-memory spans and counters, keyed by request."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[Tuple[str, str], float] = defaultdict(float)
        self.request: Optional[str] = None
        self._stack: List[int] = []

    @contextmanager
    def op(self, request: str) -> Iterator[None]:
        """Record the spans of one unit of work under ``request``."""
        self.request = request
        try:
            with self.span("op"):
                yield
        finally:
            self.request = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the enclosed block as a span (nothing outside an op)."""
        if self.request is None:
            yield
            return
        index = len(self.spans)
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.request)
        self.spans.append(span)
        self._stack.append(index)
        span.start = self.clock()
        try:
            yield
        finally:
            span.end = self.clock()
            self._stack.pop()

    def call(self, name: str, function: Callable, *args: Any,
             **kwargs: Any) -> Any:
        """``function(*args, **kwargs)`` inside a span named ``name``."""
        if self.request is None:
            return function(*args, **kwargs)
        with self.span(name):
            return function(*args, **kwargs)

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a per-request counter (nothing outside an op)."""
        if self.request is not None:
            self.counts[(self.request, name)] += amount

    def per_request(self) -> Dict[str, Dict[str, Tuple[float, float, int]]]:
        """request -> span name -> (total seconds, self seconds, calls)."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span.parent >= 0:
                children[span.parent].append((span.start, span.end))
        table: Dict[str, Dict[str, Tuple[float, float, int]]] = {}
        for index, span in enumerate(self.spans):
            row = table.setdefault(span.request, {})
            total, own, calls = row.get(span.name, (0.0, 0.0, 0))
            row[span.name] = (
                total + span.end - span.start,
                own + self_time(span.start, span.end, children[index]),
                calls + 1)
        return table

    def dump(self, path: Path) -> None:
        """Write every span and counter as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["name", "start", "end", "parent", "request"],
            "spans": [[s.name, s.start, s.end, s.parent, s.request]
                      for s in self.spans],
            "counts": [[request, name, value]
                       for (request, name), value in self.counts.items()],
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))


def span_metrics(recorder: SpanRecorder) -> Dict[str, float]:
    """Median per request of every span- and counter-derived metric.

    A request that never reached a layer counts as 0 for it, so the median
    describes the workload's typical unit of work.
    """
    table = recorder.per_request()
    requests = sorted(table)
    metrics: Dict[str, float] = {}
    if not requests:
        return {name: 0.0 for name in (*SPAN_METRICS, *COUNT_METRICS)}
    column = {"total": 0, "self": 1, "calls": 2}
    for metric, (name, kind, scale) in SPAN_METRICS.items():
        metrics[metric] = statistics.median(
            table[request].get(name, (0.0, 0.0, 0))[column[kind]] * scale
            for request in requests)
    for metric, counter in COUNT_METRICS.items():
        metrics[metric] = statistics.median(
            recorder.counts.get((request, counter), 0.0)
            for request in requests)
    return metrics


# --------------------------------------------------------------- the wrappers
def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap the program's layer entry points in spans; returns the undo.

    Only names the program looks up at call time are replaced: the
    scenario module's ``build_workload`` and ``Processor`` globals, and
    methods of the result, store, job-backend and service classes.
    """
    from repro.core import scenario
    from repro.exec.backends import LocalPoolBackend
    from repro.results.store import ResultsStore
    from repro.serve.service import ResultsService

    saved: List[Tuple[Any, str, Any]] = []

    def replace(owner: Any, attribute: str, replacement: Any) -> None:
        saved.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def spanned(owner: Any, attribute: str, name: str) -> None:
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return recorder.call(name, original, *args, **kwargs)
        replace(owner, attribute, wrapper)

    spanned(scenario, "build_workload", "workloads.build")
    spanned(scenario.ScenarioResult, "to_json", "core.scenario.to_json")
    spanned(ResultsStore, "key_for", "results.store.key_for")
    spanned(ResultsStore, "get_with_seconds", "results.store.get")
    spanned(LocalPoolBackend, "warm", "exec.warm")
    spanned(LocalPoolBackend, "submit", "exec.submit")
    spanned(LocalPoolBackend, "poll", "exec.wait")
    spanned(ResultsService, "lookup", "serve.lookup")

    original_put = ResultsStore.put

    @functools.wraps(original_put)
    def put(store: ResultsStore, *args: Any, **kwargs: Any) -> str:
        key = recorder.call("results.store.put", original_put, store,
                            *args, **kwargs)
        recorder.count("results.store.bytes_written",
                       os.path.getsize(store.entry_path(key)))
        return key
    replace(ResultsStore, "put", put)

    base = scenario.Processor

    class TracedProcessor(base):  # type: ignore[misc, valid-type]
        def __init__(self, *args: Any, **kwargs: Any) -> None:
            recorder.call("core.processor.build", super().__init__,
                          *args, **kwargs)

        def run(self, *args: Any, **kwargs: Any) -> Any:
            result = recorder.call("core.processor.run", super().run,
                                   *args, **kwargs)
            recorder.count("sim.events", self.engine.events_processed)
            return result
    replace(scenario, "Processor", TracedProcessor)

    def undo() -> None:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
    return undo
