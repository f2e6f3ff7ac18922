"""General-purpose event-driven simulation engine.

This is the Python equivalent of the C engine sketched in Figure 4 of the
paper: an event queue plus a global timer.  It can simulate purely
asynchronous systems, purely clocked systems (via periodic events -- one per
clock domain) and mixtures of the two, which is exactly what the GALS
processor model needs.

Typical use::

    engine = SimulationEngine()
    engine.schedule_periodic(start=0.5, period=2.0, callback=clock1_logic)
    engine.schedule_periodic(start=1.0, period=3.0, callback=clock2_logic)
    engine.schedule_periodic(start=0.0, period=2.5, callback=clock3_logic)
    engine.run(until=100.0)

Fast path
---------

A GALS run consists almost entirely of a handful of periodic clock-edge
events; one-shot events are rare.  The engine therefore keeps the periodic
events on a *clock wheel* -- a small list of chain records, one per clock,
each holding the chain's next edge time -- and merges the general-purpose
heap (one-shots, aperiodic events) into it only when the heap is non-empty.
Advancing a clock is then one ``min()`` over the wheel plus a float add,
instead of a heap pop, an ``Event`` allocation and a heap push per edge.

The wheel segment loop itself lives in :mod:`repro.sim.hotcore`
(``run_wheel``).  The run-loop state it touches per event is held in
single-element list cells (``_stop``, ``_events``, ``_current``,
``_wheel_state``); ``_now`` stays a plain attribute because the pipeline's
edge closures read ``engine._now`` directly.

Edge times are produced by the same repeated ``time += period`` float
addition the generic heap path uses, so the two paths are bit-identical:
identical seeds produce identical event orders, timestamps, and therefore
identical ``SimulationResult`` statistics (``use_wheel=False`` forces the
generic path; a regression test asserts the equivalence).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, List, Optional

from .event import (CHAIN_CALLBACK, CHAIN_CANCELLED, CHAIN_HANDLE, CHAIN_NAME,
                    CHAIN_PARAM, CHAIN_PERIOD, CHAIN_PRIORITY, CHAIN_SEQ,
                    CHAIN_TIME, Event, SimulationError, _SEQUENCE)
from .hotcore import run_wheel

#: Compact the heap once at least this many cancelled events are rotting in it
#: (and they make up the majority of the queue).
_COMPACT_THRESHOLD = 64


class SimulationEngine:
    """Discrete-event simulator with support for periodic (clock) events.

    Time is a float in nanoseconds by convention throughout the library,
    although the engine itself is unit-agnostic.

    ``use_wheel=False`` disables the clock-wheel fast path and schedules
    periodic events through the generic heap (the seed engine's behaviour);
    both paths are deterministic and produce identical simulations.
    """

    def __init__(self, use_wheel: bool = True) -> None:
        #: generic heap of (time, priority, seq, event) tuples
        self._queue: List[tuple] = []
        #: clock wheel: one chain record per periodic event (see event.py)
        self._wheel: List[list] = []
        self._use_wheel = use_wheel
        self._now: float = 0.0
        self._running: bool = False
        self._cancelled_pending: int = 0
        # Run-loop state shared with run_wheel as single-element list cells:
        # events processed, stop request, chain currently firing, and the
        # wheel membership version (bumped on every wheel change; lets the
        # run loop detect mid-run schedule/cancel of periodic chains even
        # when the wheel length is unchanged).
        self._events: List[int] = [0]
        self._stop: List[bool] = [False]
        self._current: List[Optional[list]] = [None]
        self._wheel_state: List[int] = [0]
        #: the global event sequence counter (shared with run_wheel,
        #: which draws fresh seqs for rescheduled chain occurrences)
        self._sequence = _SEQUENCE

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far."""
        return self._events[0]

    @property
    def pending_events(self) -> int:
        """Number of live events waiting to fire (cancelled events excluded)."""
        live_chains = sum(1 for chain in self._wheel
                          if not chain[CHAIN_CANCELLED])
        return len(self._queue) - self._cancelled_pending + live_chains

    # ------------------------------------------------------------- scheduling
    def schedule(
        self,
        time: float,
        callback: Callable[[Any], None],
        param: Any = None,
        priority: int = 0,
        name: str = "",
    ) -> Event:
        """Schedule a one-shot event at absolute time ``time``."""
        if callback is None:
            raise SimulationError(
                f"cannot schedule event {name!r} without a callback")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time} before current time {self._now}"
            )
        event = Event(time=time, priority=priority, callback=callback,
                      param=param, name=name)
        event._cancel_hook = self._note_cancelled
        heapq.heappush(self._queue, (time, priority, event.seq, event))
        return event

    def schedule_after(
        self,
        delay: float,
        callback: Callable[[Any], None],
        param: Any = None,
        priority: int = 0,
        name: str = "",
    ) -> Event:
        """Schedule a one-shot event ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule(self._now + delay, callback, param, priority, name)

    def schedule_periodic(
        self,
        start: float,
        period: float,
        callback: Callable[[Any], None],
        param: Any = None,
        priority: int = 0,
        name: str = "",
    ) -> Event:
        """Schedule a periodic event -- the building block for clock domains.

        The first occurrence happens at absolute time ``start``; afterwards the
        event re-schedules itself every ``period`` time units until cancelled.
        The returned handle refers to the chain's next occurrence; cancelling
        it stops the whole chain.  To stop an already-running periodic chain
        use :meth:`cancel_chain` with the event name.
        """
        if callback is None:
            raise SimulationError(
                f"cannot schedule periodic event {name!r} without a callback")
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period}")
        if start < self._now:
            raise SimulationError(
                f"cannot start periodic event at {start} before now {self._now}"
            )
        event = Event(time=start, priority=priority, callback=callback,
                      param=param, period=period, name=name)
        if self._use_wheel:
            chain = [start, priority, event.seq, callback, param, period,
                     name, event, False]
            event._chain = chain
            self._wheel.append(chain)
            self._wheel_state[0] += 1
        else:
            event._cancel_hook = self._note_cancelled
            heapq.heappush(self._queue, (start, priority, event.seq, event))
        return event

    def next_chain_time(self, name: str) -> Optional[float]:
        """Pending fire time of the live periodic chain named ``name``.

        Returns the earliest pending occurrence over both scheduler paths
        (clock wheel and generic heap), or ``None`` when no live event with
        that name is pending.  Used by mid-run DVFS retiming to anchor a
        domain's new clock schedule on the edge that is already in flight.
        """
        best: Optional[float] = None
        for chain in self._wheel:
            if chain[CHAIN_NAME] == name and not chain[CHAIN_CANCELLED]:
                time = chain[CHAIN_TIME]
                if best is None or time < best:
                    best = time
        for time, _, _, event in self._queue:
            if event.name == name and not event.cancelled:
                if best is None or time < best:
                    best = time
        return best

    def cancel_chain(self, name: str) -> int:
        """Cancel every pending event whose name matches ``name``.

        Returns the number of events cancelled.  Used to stop clock domains.
        The chain occurrence currently firing is not pending and therefore not
        cancelled (matching the generic path, where the firing event has
        already been popped off the queue).
        """
        count = 0
        current = self._current[0]
        for chain in self._wheel:
            if (chain[CHAIN_NAME] == name and not chain[CHAIN_CANCELLED]
                    and chain is not current):
                chain[CHAIN_HANDLE].cancel()
                count += 1
        self._prune_wheel()
        for _, _, _, event in self._queue:
            if event.name == name and not event.cancelled:
                event.cancel()
                count += 1
        return count

    # ----------------------------------------------- cancelled-event plumbing
    def _note_cancelled(self, _event: Event) -> None:
        """Cancel hook for heap events: track rot, compact past a threshold."""
        self._cancelled_pending += 1
        if (self._cancelled_pending >= _COMPACT_THRESHOLD
                and self._cancelled_pending * 2 > len(self._queue)):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled events from the heap instead of letting them rot.

        In place: ``run()``/``step()`` hold direct references to the list.
        """
        self._queue[:] = [entry for entry in self._queue
                          if not entry[3].cancelled]
        heapq.heapify(self._queue)
        self._cancelled_pending = 0

    def _prune_wheel(self) -> None:
        """Remove cancelled chains (except the one currently firing)."""
        current = self._current[0]
        kept = [chain for chain in self._wheel
                if not chain[CHAIN_CANCELLED] or chain is current]
        if len(kept) != len(self._wheel):
            self._wheel[:] = kept
            self._wheel_state[0] += 1

    def _discard_chain(self, chain: list) -> None:
        """Remove one chain from the wheel by identity (it may be gone
        already if a callback pruned it via cancel_chain)."""
        wheel = self._wheel
        for index in range(len(wheel)):
            if wheel[index] is chain:
                del wheel[index]
                self._wheel_state[0] += 1
                return

    # ------------------------------------------------------------------- run
    def step(self) -> Optional[Event]:
        """Execute the single next non-cancelled event.  Returns it, or None."""
        queue = self._queue
        wheel = self._wheel
        while True:
            chain = None
            if wheel:
                chain = min(wheel)
                if chain[CHAIN_CANCELLED]:
                    self._discard_chain(chain)
                    continue
            head = None
            while queue:
                head = queue[0]
                if head[3].cancelled:
                    heapq.heappop(queue)
                    self._cancelled_pending -= 1
                    head = None
                    continue
                break
            if chain is None and head is None:
                return None
            if chain is not None and (
                    head is None
                    or (chain[0], chain[1], chain[2]) < (head[0], head[1], head[2])):
                return self._fire_chain(chain)
            heapq.heappop(queue)
            return self._fire_heap_event(head[3])

    def _fire_chain(self, chain: list) -> Event:
        time = chain[CHAIN_TIME]
        if time < self._now:
            raise SimulationError("event queue corrupted: time went backwards")
        self._now = time
        self._current[0] = chain
        chain[CHAIN_CALLBACK](chain[CHAIN_PARAM])
        self._current[0] = None
        self._events[0] += 1
        handle = chain[CHAIN_HANDLE]
        handle.time = time
        if chain[CHAIN_CANCELLED]:
            self._discard_chain(chain)
        else:
            # Fresh (seq, time) for the next occurrence, allocated after the
            # callback -- exactly when the generic path allocates the
            # rescheduled event -- so tie-breaking matches bit for bit.
            chain[CHAIN_SEQ] = next(_SEQUENCE)
            chain[CHAIN_TIME] = time + chain[CHAIN_PERIOD]
            handle.seq = chain[CHAIN_SEQ]
        return handle

    def _fire_heap_event(self, event: Event) -> Event:
        if event.time < self._now:
            raise SimulationError("event queue corrupted: time went backwards")
        # The event left the heap: a cancel() from here on must not count
        # toward the heap's cancelled-rot bookkeeping.
        event._cancel_hook = None
        self._now = event.time
        event.callback(event.param)
        self._events[0] += 1
        if event.period is not None and event.period > 0.0 and not event.cancelled:
            # Re-arm the *same* event object (fresh time and seq, allocated
            # after the callback exactly like the wheel path does), so the
            # handle returned by schedule_periodic stays live: cancelling it
            # stops the chain on both scheduler paths.
            event.time = event.time + event.period
            event.seq = next(_SEQUENCE)
            event._cancel_hook = self._note_cancelled
            heapq.heappush(self._queue,
                           (event.time, event.priority, event.seq, event))
        return event

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_condition: Optional[Callable[[], bool]] = None,
    ) -> float:
        """Run the simulation.

        Parameters
        ----------
        until:
            Absolute time at which to stop (events at exactly ``until`` are
            still processed).  ``None`` runs until the queue drains.
        max_events:
            Safety limit on the number of events processed in this call.
        stop_condition:
            Callable evaluated after every event; simulation stops when it
            returns True.  Used to stop once a processor has committed the
            requested number of instructions.

        Returns the simulation time at which the run stopped.

        Wheel segments (periodic events only, no pending one-shots) are
        delegated to :func:`~repro.sim.hotcore.run_wheel`; the generic heap
        path interleaves through :meth:`step` exactly as before.
        """
        self._running = True
        stop = self._stop
        stop[0] = False
        processed = 0
        queue = self._queue
        wheel = self._wheel
        # Hoisted sentinels: "no limit" becomes +inf so the per-event checks
        # are single float comparisons with no None tests.
        horizon = float("inf") if until is None else until
        event_limit = float("inf") if max_events is None else max_events
        try:
            while not stop[0]:
                if not queue and wheel:
                    # ---- clock-wheel fast path: periodic events only ----
                    finished, processed = run_wheel(
                        self, horizon, until, stop_condition, max_events,
                        processed)
                    if finished:
                        return self._now
                else:
                    # ---- general path: one-shots pending, or wheel empty ----
                    next_time = self._peek_time()
                    if next_time is None:
                        break
                    if next_time > horizon:
                        self._now = until
                        break
                    if self.step() is None:
                        break
                    processed += 1
                    if stop_condition is not None and stop_condition():
                        break
                    if processed >= event_limit:
                        break
        finally:
            self._running = False
        return self._now

    def stop(self) -> None:
        """Request the current :meth:`run` call to stop after the current event."""
        self._stop[0] = True

    def _peek_time(self) -> Optional[float]:
        """Time of the next non-cancelled event, or None if none is pending."""
        queue = self._queue
        while queue and queue[0][3].cancelled:
            heapq.heappop(queue)
            self._cancelled_pending -= 1
        best: Optional[float] = queue[0][0] if queue else None
        for chain in self._wheel:
            if not chain[CHAIN_CANCELLED]:
                time = chain[CHAIN_TIME]
                if best is None or time < best:
                    best = time
        return best

    # ------------------------------------------------------------------ misc
    def drain(self) -> Iterable[Event]:
        """Remove and yield all remaining events without executing them."""
        remaining: List[Event] = []
        while self._queue:
            _, _, _, event = heapq.heappop(self._queue)
            event._cancel_hook = None   # no longer queued: detach bookkeeping
            if not event.cancelled:
                remaining.append(event)
        self._cancelled_pending = 0
        for chain in self._wheel:
            handle = chain[CHAIN_HANDLE]
            handle._chain = None
            if not chain[CHAIN_CANCELLED]:
                handle.time = chain[CHAIN_TIME]
                handle.seq = chain[CHAIN_SEQ]
                remaining.append(handle)
        if self._wheel:
            self._wheel.clear()
            self._wheel_state[0] += 1
        remaining.sort(key=lambda e: (e.time, e.priority, e.seq))
        yield from remaining

    def reset(self) -> None:
        """Clear the queue and reset time to zero."""
        for _, _, _, event in self._queue:
            event._cancel_hook = None
        for chain in self._wheel:
            chain[CHAIN_HANDLE]._chain = None
        self._queue.clear()
        self._wheel.clear()
        self._wheel_state[0] += 1
        self._now = 0.0
        self._events[0] = 0
        self._stop[0] = False
        self._cancelled_pending = 0
        self._current[0] = None
