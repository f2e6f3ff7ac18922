"""Pure statistics for the benchmark: percentiles, open-loop accounting, A/B.

Nothing here imports the program, so the rules the benchmark reports by can
be tested without running a simulation.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

#: Percentiles a timing may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)

#: A percentile is only reported when at least this many samples lie beyond
#: it; fewer make the figure one or two outliers rather than a tail.
MIN_BEYOND = 10


# ---------------------------------------------------------------- percentiles
def rank(count: int, p: float) -> int:
    """1-based nearest-rank position of percentile ``p`` among ``count``."""
    # the epsilon keeps float error (99.9 / 100 * 10000 = 9990.000...02)
    # from pushing an exact rank up by one
    return max(1, math.ceil(p * count / 100.0 - 1e-9))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` of ``values`` (in any order)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[rank(len(ordered), p) - 1]


def tail_percentile(count: int) -> Optional[float]:
    """The highest ladder percentile with at least ``MIN_BEYOND`` samples
    beyond it among ``count`` samples, or None when not even the median has.
    """
    chosen = None
    for p in PERCENTILE_LADDER:
        if count - rank(count, p) >= MIN_BEYOND:
            chosen = p
    return chosen


def percentile_label(p: float) -> str:
    """``p99``, ``p99.9``: the suffix a reported percentile is named by."""
    return f"p{p:g}"


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), as ``statistics.quantiles``
    gives them; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


# ----------------------------------------------------------------- host speed
class _Slot:
    __slots__ = ("value", "ready")

    def __init__(self, value: int) -> None:
        self.value = value
        self.ready = value & 1 == 0


def calibration_kernel(loops: int = 12000) -> float:
    """Seconds one fixed piece of interpreter work takes right now: object
    creation, attribute reads, dict and list traffic, float arithmetic."""
    start = time.perf_counter()
    table: dict = {}
    queue: List[_Slot] = []
    total = 0.0
    for i in range(loops):
        slot = _Slot(i)
        table[i & 255] = table.get(i & 255, 0) + slot.value
        queue.append(slot)
        if len(queue) > 32:
            head = queue.pop(0)
            if head.ready:
                total += head.value * 0.5
    return time.perf_counter() - start


#: What :func:`calibration_kernel` took on the host the benchmark was
#: defined on (2-CPU container, CPython 3.11), when that host was quiet.
REFERENCE_KERNEL_S = 0.0045

#: How closely the program's single-process wall time follows the kernel's
#: when the host slows: it scales with the kernel time to this power.  On
#: thirty run-long runs in three slow spells of the host (kernel at 0.5,
#: 0.7 and 0.8 of reference speed), full scaling left the three sets'
#: medians 13% apart and no scaling 30%; this exponent brought them
#: within 3%.
HOST_SENSITIVITY = 0.75


def sample_kernel(probe: Callable[[], float] = calibration_kernel) -> float:
    """Median of three kernel timings (one spike does not count)."""
    return statistics.median(probe() for _ in range(3))


def at_reference_speed(seconds: float, before: float, after: float,
                       reference: float = REFERENCE_KERNEL_S) -> float:
    """``seconds`` of wall time scaled to the reference host speed, given
    the kernel samples taken just before and just after it."""
    return seconds * (reference / ((before + after) / 2)) ** HOST_SENSITIVITY


class HostSpeed:
    """Expresses wall times at a reference host speed.

    Other tenants of a shared host slow this process by tens of percent
    for seconds at a time, and a whole run can land in a slow spell.  The
    kernel is timed between operations; an operation's wall time is
    multiplied by the reference kernel time over the mean of the kernel
    times just before and after it, to the power ``HOST_SENSITIVITY``.
    The kernel is the benchmark's own code, so a change to the program
    cannot move it.
    """

    def __init__(self, probe: Callable[[], float] = calibration_kernel,
                 reference: float = REFERENCE_KERNEL_S) -> None:
        self.probe = probe
        self.reference = reference
        self.last = self.sample()
        self.factors: List[float] = []

    def sample(self) -> float:
        return sample_kernel(self.probe)

    def factor(self) -> float:
        """Reference speed over the speed around the operation that just
        ended (below 1 on a slow host); call once after each operation."""
        now = self.sample()
        factor = at_reference_speed(1.0, self.last, now, self.reference)
        self.last = now
        self.factors.append(factor)
        return factor

    def speed(self) -> float:
        """Median factor so far: how fast the host ran, 1 = reference."""
        return statistics.median(self.factors) if self.factors else math.nan


# ----------------------------------------------------------------- open loop
@dataclass(frozen=True)
class Reply:
    """One open-loop request: when it was due, sent and answered (seconds),
    the HTTP status (0 when the connection failed) and whether the body was
    the expected one."""

    due: float
    sent: float
    done: float
    status: int
    body_ok: bool

    @property
    def latency(self) -> float:
        """Seconds from when the request was due, so a stall that delays
        later sends counts against those later requests too."""
        return self.done - self.due

    @property
    def lag(self) -> float:
        """Seconds the generator sent this request late."""
        return self.sent - self.due


def due_time(index: int, rate: float, start: float) -> float:
    """When request ``index`` of a fixed-rate schedule is due."""
    return start + index / rate


def run_open_loop(send: Callable[[int], Tuple[int, bool]], count: int,
                  rate: float, senders: int,
                  clock: Callable[[], float] = time.perf_counter,
                  sleep: Callable[[float], None] = time.sleep,
                  lead: float = 0.01) -> List[Reply]:
    """Send ``count`` requests at ``rate`` per second whatever the replies do.

    ``send(i)`` performs request ``i`` and returns ``(status, body_ok)``.
    ``senders`` threads share the schedule; a sender that falls behind sends
    at once, and the reply's latency still runs from the due time.
    """
    start = clock() + lead
    replies: List[Optional[Reply]] = [None] * count
    lock = threading.Lock()
    cursor = [0]

    def sender() -> None:
        while True:
            with lock:
                index = cursor[0]
                if index >= count:
                    return
                cursor[0] += 1
            due = due_time(index, rate, start)
            wait = due - clock()
            if wait > 0:
                sleep(wait)
            sent = clock()
            status, body_ok = send(index)
            replies[index] = Reply(due, sent, clock(), status, body_ok)

    if senders <= 1:
        sender()
    else:
        threads = [threading.Thread(target=sender, daemon=True)
                   for _ in range(senders)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return [reply for reply in replies if reply is not None]


@dataclass(frozen=True)
class LoadSummary:
    """What one fixed-rate phase delivered."""

    samples: int
    good: int
    p50_ms: float
    tail: Optional[float]
    tail_ms: float
    lag_p99_ms: float
    good_per_s: float
    statuses: Tuple[Tuple[int, int], ...]

    @property
    def failed(self) -> int:
        """Requests that were refused, wrong or later than the limit."""
        return self.samples - self.good


def summarize_load(replies: Sequence[Reply], limit_s: float) -> LoadSummary:
    """Latency from due time, generator lag and goodput of one phase.

    A reply is good when it is a 200 with the expected body that arrived
    within ``limit_s`` of its due time; anything else is a failure.  Goodput
    is good replies per second between the first due time and the last
    reply.
    """
    if not replies:
        raise ValueError("no replies to summarize")
    latencies = [reply.latency for reply in replies]
    good = sum(1 for reply in replies
               if reply.status == 200 and reply.body_ok
               and reply.latency <= limit_s)
    tail = tail_percentile(len(replies))
    wall = (max(reply.done for reply in replies)
            - min(reply.due for reply in replies))
    statuses: dict = {}
    for reply in replies:
        statuses[reply.status] = statuses.get(reply.status, 0) + 1
    return LoadSummary(
        samples=len(replies),
        good=good,
        p50_ms=percentile(latencies, 50.0) * 1e3,
        tail=tail,
        tail_ms=percentile(latencies, tail) * 1e3 if tail else math.nan,
        lag_p99_ms=percentile([reply.lag for reply in replies], 99.0) * 1e3,
        good_per_s=good / wall if wall > 0 else 0.0,
        statuses=tuple(sorted(statuses.items())),
    )


# ------------------------------------------------------------------------ A/B
#: Fewest parent/change pairs a gain may rest on.
MIN_PAIRS = 10

@dataclass(frozen=True)
class Comparison:
    """One (workload, metric) row of an interleaved A/B comparison."""

    parent: Tuple[float, float, float]
    change: Tuple[float, float, float]
    win_frac: float
    worse_by: float
    verdict: str


def compare(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> Comparison:
    """Judge paired runs of one metric (pair ``i`` ran on the same seed).

    * ``unresolved``: the parent's own quartile spread exceeds ``bound``,
      unless every change run beats every parent run;
    * ``better``: at least ``MIN_PAIRS`` pairs, the change wins at least
      nine tenths of them (ties count for neither side) and the medians
      differ by more than the parent's quartile distance;
    * ``worse``: the change's median is worse than the parent's by more
      than ``bound`` (a share of the parent's median);
    * ``same``: none of these.
    """
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', not {better!r}")
    if len(parent) != len(change) or not parent:
        raise ValueError("compare needs the same non-zero number of runs "
                         "on each side")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pq, cq = quartiles(parent), quartiles(change)
    gain = sign * (cq[1] - pq[1])
    worse_by = -gain / abs(pq[1]) if pq[1] else math.inf
    every_run_better = (min(change) > max(parent) if sign > 0
                        else max(change) < min(parent))
    win_frac = wins / len(parent)
    if relative_spread(parent) > bound and not every_run_better:
        verdict = "unresolved"
    elif (len(parent) >= MIN_PAIRS and win_frac >= 0.9
          and gain > pq[2] - pq[0]):
        verdict = "better"
    elif worse_by > bound:
        verdict = "worse"
    else:
        verdict = "same"
    return Comparison(parent=pq, change=cq, win_frac=win_frac,
                      worse_by=worse_by, verdict=verdict)
