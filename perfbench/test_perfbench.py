"""Tests of the benchmark's own logic (no simulation runs).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import measure
import run
import tracing

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class FakeClock:
    """A clock that only moves when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------- percentiles
@pytest.mark.parametrize("count, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond_it(count, expected):
    assert measure.tail_percentile(count) == expected


def test_nearest_rank_percentile():
    values = list(range(10, 0, -1))
    assert measure.percentile(values, 50.0) == 5
    assert measure.percentile(values, 90.0) == 9
    assert measure.percentile(values, 100.0) == 10
    assert measure.percentile([7.0], 99.0) == 7.0


def test_relative_spread_matches_statistics_quantiles():
    values = [9.0, 10.0, 10.0, 11.0, 12.0, 10.5, 9.5, 10.0, 11.5, 10.2]
    q1, q2, q3 = measure.quartiles(values)
    assert measure.relative_spread(values) == pytest.approx((q3 - q1) / q2)
    assert measure.quartiles([3.0]) == (3.0, 3.0, 3.0)


# ----------------------------------------------------------------- open loop
def test_open_loop_times_each_request_from_when_it_was_due():
    clock = FakeClock()
    service = {0: 0.025}  # request 0 stalls for 25 ms, the rest take 1 ms

    def send(index):
        clock.sleep(service.get(index, 0.001))
        return 200, True

    replies = measure.run_open_loop(send, 4, rate=100.0, senders=1,
                                    clock=clock, sleep=clock.sleep,
                                    lead=0.01)
    assert [reply.due for reply in replies] == pytest.approx(
        [0.01, 0.02, 0.03, 0.04])
    # the stall delays requests 1 and 2; their latency includes the wait
    assert [reply.latency * 1e3 for reply in replies] == pytest.approx(
        [25.0, 16.0, 7.0, 1.0])
    assert [reply.lag * 1e3 for reply in replies] == pytest.approx(
        [0.0, 15.0, 6.0, 0.0])


def test_load_summary_counts_late_wrong_and_refused_replies_as_failed():
    replies = [measure.Reply(due=i * 0.01, sent=i * 0.01,
                             done=i * 0.01 + 0.002, status=200, body_ok=True)
               for i in range(30)]
    replies[3] = measure.Reply(0.03, 0.03, 0.03 + 0.5, 200, True)  # late
    replies[4] = measure.Reply(0.04, 0.04, 0.042, 200, False)  # wrong body
    replies[5] = measure.Reply(0.05, 0.05, 0.052, 202, False)  # not a hit
    replies[6] = measure.Reply(0.06, 0.06, 0.062, 0, False)  # refused
    summary = measure.summarize_load(replies, limit_s=0.1)
    assert summary.samples == 30
    assert summary.good == 26
    assert summary.failed == 4
    assert summary.p50_ms == pytest.approx(2.0)
    assert summary.tail == 50.0  # 30 samples: only p50 keeps ten beyond
    assert dict(summary.statuses) == {0: 1, 200: 28, 202: 1}
    # 26 good replies between the first due time (0) and the last reply
    assert summary.good_per_s == pytest.approx(26 / 0.53)


# ------------------------------------------------------------------- spans
def test_self_time_subtracts_the_union_of_children_inside_the_span():
    children = [(1.0, 3.0), (2.0, 5.0), (7.0, 8.0), (9.0, 12.0)]
    assert tracing.self_time(0.0, 10.0, children) == pytest.approx(4.0)
    assert tracing.self_time(0.0, 10.0, []) == pytest.approx(10.0)
    assert tracing.self_time(0.0, 10.0, [(0.0, 10.0), (2.0, 3.0)]) == 0.0


def test_recorder_keeps_spans_per_request_with_parents_and_self_time():
    clock = FakeClock()
    recorder = tracing.SpanRecorder(clock=clock)

    def leaf(seconds):
        clock.sleep(seconds)

    recorder.call("outside", leaf, 1.0)  # no op open: not recorded
    with recorder.op("r1"):
        with recorder.span("outer"):
            clock.sleep(1.0)
            recorder.call("inner", leaf, 2.0)
            recorder.call("inner", leaf, 3.0)
            recorder.count("things", 2)
    with recorder.op("r2"):
        recorder.call("inner", leaf, 4.0)
    recorder.count("things", 5)  # outside an op: dropped

    table = recorder.per_request()
    assert set(table) == {"r1", "r2"}
    assert table["r1"]["outer"] == pytest.approx((6.0, 1.0, 1))
    assert table["r1"]["inner"] == pytest.approx((5.0, 5.0, 2))
    assert table["r2"]["inner"] == pytest.approx((4.0, 4.0, 1))
    outer = recorder.spans[1]
    assert outer.name == "outer" and recorder.spans[outer.parent].name == "op"
    assert all(span.request in ("r1", "r2") for span in recorder.spans)
    assert dict(recorder.counts) == {("r1", "things"): 2}


def test_span_metrics_take_the_median_over_requests(tmp_path):
    clock = FakeClock()
    recorder = tracing.SpanRecorder(clock=clock)
    for request, seconds in (("a", 1.0), ("b", 3.0), ("c", 2.0)):
        with recorder.op(request):
            recorder.call("serve.lookup", clock.sleep, seconds)
    metrics = tracing.span_metrics(recorder)
    assert metrics["serve.lookup_us"] == pytest.approx(2e6)
    assert metrics["results.store.key_for_per_hit"] == 0
    recorder.dump(tmp_path / "spans.json")
    dumped = json.loads((tmp_path / "spans.json").read_text())
    assert len(dumped["spans"]) == 6


# ---------------------------------------------------------------- host speed
def test_host_speed_scales_by_the_kernel_time_around_each_operation():
    power = measure.HOST_SENSITIVITY
    samples = iter([1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 4.0, 4.0, 4.0])
    speed = measure.HostSpeed(probe=lambda: next(samples), reference=1.0)
    assert speed.factor() == pytest.approx((1 / 1.5) ** power)
    assert speed.factor() == pytest.approx((1 / 3.0) ** power)
    assert speed.speed() == pytest.approx(
        ((1 / 1.5) ** power + (1 / 3.0) ** power) / 2)
    assert measure.at_reference_speed(6.0, 2.0, 4.0, 1.5) == pytest.approx(
        6.0 * 0.5 ** power)


# ------------------------------------------------------------------------ A/B
@pytest.mark.parametrize("parent, change, better, verdict", [
    # the change wins every pair by more than the parent's quartile spread
    ([100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
     [110, 111, 109, 110, 112, 108, 110, 111, 109, 110], "higher", "better"),
    # lower is better: 30% slower is beyond the 10% bound
    ([10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10],
     [13, 13.1, 12.9, 13, 13.2, 12.8, 13, 13.1, 12.9, 13], "lower", "worse"),
    # 3% worse is within the 10% bound
    ([10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10],
     [10.3, 10.4, 10.2, 10.3, 10.5, 10.1, 10.3, 10.4, 10.2, 10.3], "lower",
     "same"),
    # the parent's own spread is wider than the bound
    ([5, 15, 8, 12, 10, 6, 14, 9, 11, 10],
     [10, 10, 10, 10, 10, 10, 10, 10, 10, 10], "lower", "unresolved"),
    # ... unless every change run beats every parent run
    ([5, 15, 8, 12, 10, 6, 14, 9, 11, 10],
     [1, 1.1, 0.9, 1, 1.2, 0.8, 1, 1.1, 0.9, 1], "lower", "better"),
    # ties count for neither side: 8 wins of 10 is not a gain
    ([10, 10, 10, 10, 10, 10, 10, 10, 10, 10],
     [10, 10, 9, 9, 9, 9, 9, 9, 9, 9], "lower", "same"),
])
def test_ab_verdicts(parent, change, better, verdict):
    assert measure.compare(parent, change, better, 0.1).verdict == verdict


def test_ab_gain_needs_ten_pairs():
    parent, change = [10.0, 10.2, 9.8] * 3, [8.0, 8.2, 7.8] * 3
    assert measure.compare(parent, change, "lower", 0.1).verdict == "same"
    assert measure.compare(parent + [10.0], change + [8.0], "lower",
                           0.1).verdict == "better"


def test_ab_win_fraction_and_worse_by():
    judged = measure.compare([10, 10, 10, 10], [9, 11, 12, 12], "lower", 0.1)
    assert judged.win_frac == 0.25
    assert judged.worse_by == pytest.approx(0.15)
    with pytest.raises(ValueError):
        measure.compare([1, 2], [1], "lower", 0.1)


# ------------------------------------------------------------ BENCHMARK.json
def test_benchmark_json_lists_the_metrics_the_benchmark_reports():
    declared = json.loads(BENCHMARK_JSON.read_text())
    assert declared["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in declared["workloads"]] == list(
        run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["per_layer"]] == [
        layer[:3] for layer in tracing.LAYERS]
    setup_bound = dict((m["name"], m["bound"])
                       for m in declared["end_to_end"])["setup_s"]
    assert all(m["bound"] < setup_bound for m in declared["end_to_end"]
               if m["name"] != "setup_s")


def test_every_span_metric_is_a_declared_layer():
    names = {layer[0] for layer in tracing.LAYERS}
    assert set(tracing.SPAN_METRICS) <= names
    assert set(tracing.COUNT_METRICS) <= names


def test_run_refuses_a_tree_without_the_program(tmp_path, capsys):
    code = run.main(["--workload", "run-long", "--repo", str(tmp_path)])
    assert code != 0
    assert capsys.readouterr().out == ""
