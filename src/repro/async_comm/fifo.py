"""Mixed-clock (asynchronous) FIFO between two clock domains.

This is the behavioural model of the low-latency token-ring FIFO of Chelcea
and Nowick that the paper uses for all inter-domain communication
(Section 3.2, Figure 2).  The circuit details are abstracted away; what
matters architecturally is:

* data written by the producer becomes visible to the consumer only after the
  *empty* flag has been synchronized into the consumer's clock domain
  (``consumer_sync`` consumer cycles);
* space freed by the consumer becomes visible to the producer only after the
  *full* flag has been synchronized into the producer's clock domain
  (``producer_sync`` producer cycles);
* in the steady state (FIFO neither empty nor full) items stream through with
  high throughput -- the latency penalties appear when the FIFO drains or
  fills, exactly the behaviour the paper relies on to explain why fpppp (few
  branches, steady streams) loses the least performance.

Residency time in these FIFOs is what Figure 7 reports as the "FIFO" share of
the instruction slip.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from ..sim.channel import Channel
from ..sim.clock import Clock


class MixedClockFifo(Channel):
    """Asynchronous FIFO connecting a producer domain to a consumer domain."""

    counts_as_fifo = True

    def __init__(
        self,
        name: str,
        capacity: int,
        producer_clock: Clock,
        consumer_clock: Clock,
        consumer_sync: int = 1,
        producer_sync: int = 1,
    ) -> None:
        super().__init__(name, capacity)
        if consumer_sync < 0 or producer_sync < 0:
            raise ValueError("synchronizer depth must be non-negative")
        self.producer_clock = producer_clock
        self.consumer_clock = consumer_clock
        self.consumer_sync = consumer_sync
        self.producer_sync = producer_sync
        # Synchronizer parameters: push/pop are the hottest FIFO operations,
        # so the per-entry visibility times are computed inline from these
        # constants.  The arithmetic is Synchronizer.observable_at's, float
        # for float (tests/test_async_fifo.py pins the two against each other).
        self._data_phase = consumer_clock.phase
        self._data_period = consumer_clock.period
        self._data_latency = consumer_sync * consumer_clock.period
        self._space_phase = producer_clock.phase
        self._space_period = producer_clock.period
        self._space_latency = producer_sync * producer_clock.period
        # same-cycle synchronizer caches: every push (pop) within one producer
        # (consumer) cycle maps to the same capturing edge, so remember the
        # last mapping instead of re-deriving it per item
        self._last_push_time = -1.0
        self._last_push_visible = 0.0
        self._last_pop_time = -1.0
        self._last_pop_visible = 0.0
        # entries: (item, push_time, visible_to_consumer_at)
        self._entries: Deque[Tuple[Any, float, float]] = deque()
        # times at which freed slots become visible to the producer; pops
        # happen at non-decreasing simulation times and the synchronizer
        # mapping is monotonic, so this deque is always sorted ascending
        self._pending_space: Deque[float] = deque()

    def retime(self) -> None:
        """Refresh the inlined clock constants after a clock retime.

        Mid-run DVFS mutates the producer/consumer :class:`Clock` objects in
        place (see :meth:`~repro.sim.clock.ClockDomain.retime`); this re-reads
        their phase/period into the inlined fast-path constants and drops the
        same-cycle mapping caches.  Queued *entries* keep their previously
        computed consumer-visibility times: a data synchronization in flight
        when the clock changed completes then, and the consumer acts on it at
        its next edge under the new clock (FIFO order makes a late head block
        later entries regardless).  Pending *space* flags are additionally
        capped at one full synchronization after the retimed producer clock's
        anchor edge: a retimed clock's phase is its anchor, so every slot
        freed after the retime becomes visible at ``anchor + latency`` or
        later, and the cap is what keeps ``_pending_space`` sorted ascending
        (the invariant ``can_push``/``push`` rely on) when a producer domain
        speeds back up.  Pure slow-downs never hit the cap.
        """
        consumer = self.consumer_clock
        self._data_phase = consumer.phase
        self._data_period = consumer.period
        self._data_latency = self.consumer_sync * consumer.period
        producer = self.producer_clock
        producer_changed = (producer.phase != self._space_phase
                            or producer.period != self._space_period)
        self._space_phase = producer.phase
        self._space_period = producer.period
        self._space_latency = self.producer_sync * producer.period
        if producer_changed and self._pending_space:
            # clock.phase is the new schedule's anchor (>= now); clamping a
            # non-decreasing sequence with min() keeps it non-decreasing, and
            # every future freed slot maps to >= this cap
            cap = self._space_phase + self._space_latency
            if self._pending_space[-1] > cap:
                self._pending_space = deque(
                    min(visible, cap) for visible in self._pending_space)
        self._last_push_time = -1.0
        self._last_pop_time = -1.0

    # -------------------------------------------------------------- producer
    def can_push(self, time: float) -> bool:
        # Destructively expires visible space: callers are the producer
        # pipeline, which only ever probes at the current (non-decreasing)
        # simulation time.  ``_pending_space`` is sorted ascending.
        """Producer-side full test at ``time`` (full-flag synchronization applies)."""
        pending = self._pending_space
        while pending and pending[0] <= time:
            pending.popleft()
        return len(self._entries) + len(pending) < self.capacity

    def free_slots(self, time: float) -> int:
        """Producer-visible free slots at ``time`` (full-flag sync applies).

        Destructively expires visible space like ``can_push``; the count
        stays valid for the rest of the producer's cycle minus its own
        pushes (consumer pops land at other simulation events).
        """
        pending = self._pending_space
        while pending and pending[0] <= time:
            pending.popleft()
        return self.capacity - len(self._entries) - len(pending)

    def push(self, item: Any, time: float) -> None:
        # inline can_push: expire visible space, then bound-check
        """Insert an item; it becomes consumer-visible only after the empty flag synchronizes into the consumer domain."""
        pending = self._pending_space
        while pending and pending[0] <= time:
            pending.popleft()
        if len(self._entries) + len(pending) >= self.capacity:
            raise OverflowError(f"push into apparently-full FIFO {self.name!r}")
        if time == self._last_push_time:
            visible = self._last_push_visible
        else:
            # inline Synchronizer.observable_at(consumer clock)
            phase = self._data_phase
            if time < phase:
                first_edge = phase
            else:
                period = self._data_period
                first_edge = phase + (int((time - phase) / period) + 1) * period
            visible = first_edge + self._data_latency
            self._last_push_time = time
            self._last_push_visible = visible
        self._entries.append((item, time, visible))
        self.push_count += 1
        box = self._transfer_box
        if box is not None:
            box[0] += 1

    def push_granted(self, item: Any, time: float) -> None:
        """Insert an item after a same-``time`` ``can_push`` grant.

        ``can_push`` already expired the visible space at ``time`` and
        verified a free slot, so only the synchronizer mapping (same-cycle
        cached) and the entry append remain.
        """
        if time == self._last_push_time:
            visible = self._last_push_visible
        else:
            # inline Synchronizer.observable_at(consumer clock)
            phase = self._data_phase
            if time < phase:
                first_edge = phase
            else:
                period = self._data_period
                first_edge = phase + (int((time - phase) / period) + 1) * period
            visible = first_edge + self._data_latency
            self._last_push_time = time
            self._last_push_visible = visible
        self._entries.append((item, time, visible))
        self.push_count += 1
        box = self._transfer_box
        if box is not None:
            box[0] += 1

    # -------------------------------------------------------------- consumer
    def _space_visible_at(self, time: float) -> float:
        """Producer-side visibility time of a slot freed at ``time``."""
        if time == self._last_pop_time:
            return self._last_pop_visible
        # inline Synchronizer.observable_at(producer clock)
        phase = self._space_phase
        if time < phase:
            first_edge = phase
        else:
            period = self._space_period
            first_edge = phase + (int((time - phase) / period) + 1) * period
        visible = first_edge + self._space_latency
        self._last_pop_time = time
        self._last_pop_visible = visible
        return visible

    def pop_ready(self, time: float) -> Any:
        """Remove and return the head item, or None while nothing is visible."""
        pending = self._pending_space
        while pending and pending[0] <= time:
            pending.popleft()
        entries = self._entries
        if not entries or entries[0][2] > time:
            return None
        item, pushed_at, _visible = entries.popleft()
        wait = time - pushed_at
        if wait < 0.0:
            wait = 0.0
        self.last_pop_wait = wait
        self.total_wait += wait
        self.pop_count += 1
        pending.append(self._space_visible_at(time))
        box = self._transfer_box
        if box is not None:
            box[0] += 1
        return item

    def pop_bulk(self, time: float, limit: int) -> List[Tuple[Any, float]]:
        # one pending-space expiry and one synchronizer mapping for the whole
        # batch: every slot freed at ``time`` becomes producer-visible at the
        # same future edge, and nothing appended here can expire at ``time``
        # (the mapped edge is strictly later), exactly as repeated pop_ready
        # calls would behave.
        """Drain up to ``limit`` visible items with batched synchronizer and statistics bookkeeping."""
        pending = self._pending_space
        while pending and pending[0] <= time:
            pending.popleft()
        entries = self._entries
        if not entries or entries[0][2] > time:
            return []
        space_visible = self._space_visible_at(time)
        box = self._transfer_box
        popped: List[Tuple[Any, float]] = []
        append = popped.append
        popleft = entries.popleft
        pend = pending.append
        wait = self.last_pop_wait
        count = 0
        while count < limit and entries and entries[0][2] <= time:
            item, pushed_at, _visible = popleft()
            wait = time - pushed_at
            if wait < 0.0:
                wait = 0.0
            self.total_wait += wait
            pend(space_visible)
            append((item, wait))
            count += 1
        if count:
            self.last_pop_wait = wait
            self.pop_count += count
            if box is not None:
                box[0] += count
        return popped

    # ----------------------------------------------------------------- misc
    def flush(self, predicate: Optional[Callable[[Any], bool]] = None) -> int:
        """Drop entries matching ``predicate`` (all of them when None).

        Flushed slots are returned to the producer immediately; a pipeline
        flush resets the FIFO control state on both sides.
        """
        if predicate is None:
            dropped = len(self._entries)
            self._entries.clear()
        else:
            kept = [e for e in self._entries if not predicate(e[0])]
            dropped = len(self._entries) - len(kept)
            self._entries = deque(kept)
        self.flush_count += dropped
        return dropped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MixedClockFifo(name={self.name!r}, occ={len(self._entries)}/"
                f"{self.capacity}, producer={self.producer_clock.name!r}, "
                f"consumer={self.consumer_clock.name!r})")
