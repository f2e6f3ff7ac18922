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

The clock wheel
---------------

A GALS run consists almost entirely of a handful of periodic clock-edge
events, so the event queue is a *clock wheel*: a small list of chain
records (see :mod:`repro.sim.event`), one per scheduled event, each holding
its next fire time.  Firing the next event is one ``min()`` over the wheel
plus a float add.  A one-shot is a chain that retires after its one fire
instead of re-arming, so it orders against clock edges by the same
``(time, priority, seq)`` key.

The run loop itself lives in :mod:`repro.sim.hotcore` (``run_wheel``).  The
run-loop state it touches per event is held in single-element list cells
(``_stop``, ``_events``, ``_current``, ``_wheel_state``); ``_now`` stays a
plain attribute because the pipeline's edge closures read ``engine._now``
directly.

Edge times are produced by repeated ``time += period`` float addition, and
each next occurrence draws its tie-breaking sequence number after its
callback, exactly as a heap that re-pushes the fired event would.  The wheel
therefore reproduces a heap-only engine's event order and timestamps bit for
bit; the regression tests pin the logs and results that engine produced.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from .event import (CHAIN_CALLBACK, CHAIN_CANCELLED, CHAIN_NAME, CHAIN_PERIOD,
                    CHAIN_TIME, Event, SimulationError, _SEQUENCE)
from .hotcore import run_wheel


class SimulationEngine:
    """Discrete-event simulator with support for periodic (clock) events.

    Time is a float in nanoseconds by convention throughout the library,
    although the engine itself is unit-agnostic.
    """

    def __init__(self) -> None:
        #: clock wheel: one chain record per scheduled event (see event.py)
        self._wheel: List[list] = []
        self._now: float = 0.0
        # Run-loop state shared with run_wheel as single-element list cells:
        # events processed, stop request, chain currently firing, and the
        # wheel membership version (bumped on every wheel change; lets the
        # run loop detect mid-run schedule/cancel even when the wheel length
        # is unchanged).
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
        chain = [time, priority, next(_SEQUENCE), None, param, None, name,
                 False]

        def fire_once(param: Any) -> None:
            # retire before the call: the run loop drops a cancelled chain
            # after its callback instead of re-arming it
            chain[CHAIN_CANCELLED] = True
            callback(param)

        chain[CHAIN_CALLBACK] = fire_once
        return self._add(chain)

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
        Cancelling the returned handle stops the whole chain.  To stop a
        chain by name use :meth:`cancel_chain`.
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
        return self._add([start, priority, next(_SEQUENCE), callback, param,
                          period, name, False])

    def _add(self, chain: list) -> Event:
        self._wheel.append(chain)
        self._wheel_state[0] += 1
        return Event(chain)

    def next_chain_time(self, name: str) -> Optional[float]:
        """Pending fire time of the live periodic chain named ``name``.

        Returns the earliest pending occurrence, or ``None`` when no live
        periodic chain with that name is on the wheel.  Used by mid-run DVFS
        retiming to anchor a domain's new clock schedule on the edge that is
        already in flight.
        """
        best: Optional[float] = None
        for chain in self._wheel:
            if (chain[CHAIN_NAME] == name and not chain[CHAIN_CANCELLED]
                    and chain[CHAIN_PERIOD] is not None):
                time = chain[CHAIN_TIME]
                if best is None or time < best:
                    best = time
        return best

    def cancel_chain(self, name: str) -> int:
        """Cancel every pending event whose name matches ``name``.

        Returns the number of events cancelled.  Used to stop clock domains.
        The chain occurrence currently firing is not pending and therefore not
        cancelled.
        """
        count = 0
        current = self._current[0]
        for chain in self._wheel:
            if (chain[CHAIN_NAME] == name and not chain[CHAIN_CANCELLED]
                    and chain is not current):
                chain[CHAIN_CANCELLED] = True
                count += 1
        kept = [chain for chain in self._wheel
                if not chain[CHAIN_CANCELLED] or chain is current]
        if len(kept) != len(self._wheel):
            self._wheel[:] = kept
            self._wheel_state[0] += 1
        return count

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
    def run(self, until: Optional[float] = None) -> float:
        """Run the simulation; return the time at which it stopped.

        Events at exactly ``until`` are still processed; past it the clock
        moves to ``until`` and the run returns.  ``None`` runs until the
        wheel is empty.  A callback ends the run early with :meth:`stop`.
        """
        stop = self._stop
        stop[0] = False
        wheel = self._wheel
        while wheel and not stop[0]:
            if run_wheel(self, until):
                break
        return self._now

    def stop(self) -> None:
        """Request the current :meth:`run` call to stop after the current event."""
        self._stop[0] = True
