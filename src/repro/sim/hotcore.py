"""The engine hot core: wheel run loop, edge ticks, FIFO sync, wakeups.

This module holds the per-event code of the simulator: the clock-wheel run
loop (extracted from :meth:`SimulationEngine.run`), the specialised
clock-edge ticks (extracted from :meth:`ClockDomain.bind`), the mixed-clock
FIFO synchronizer edge mapping, and the event-wakeup waiter walk (extracted
from the execution unit's inlined writeback).  It keeps explicit state
objects with ``__slots__`` instead of closures, flat locals and no dynamic
dispatch.

Behavioural contract: every function here is **bit-identical** to the inline
code it replaced (the golden regression suite pins the results).

The module intentionally imports nothing from the rest of the package: it is
a leaf, importable from ``sim.clock`` / ``async_comm.fifo`` without cycles.
Chain records are the 9-element lists documented in :mod:`repro.sim.event`
(indices used literally here for speed: 0=time, 1=priority, 2=seq,
3=callback, 4=param, 5=period, 8=cancelled).
"""


# --------------------------------------------------------------- run loop
def run_wheel(engine, horizon, until, stop_condition, max_events, processed):
    """Run one clock-wheel segment: periodic chains only, no pending one-shots.

    Extracted verbatim (in behaviour) from the wheel fast path of
    :meth:`repro.sim.engine.SimulationEngine.run`.  The caller guarantees the
    wheel is non-empty and the generic heap is empty on entry.  The segment
    ends when a one-shot is scheduled, the wheel membership changes, a
    cancelled chain is discarded, a stop is requested, the horizon is passed,
    the stop condition fires, or the event budget is exhausted.

    Returns ``(finished, processed)``: ``finished`` is True when ``run()``
    should return immediately (horizon / stop condition / event budget), False
    when the outer loop should re-examine the queues; ``processed`` is the
    updated per-call event count (only meaningful under ``max_events`` /
    ``stop_condition``).

    Engine state is exchanged through the mutable cells the engine exposes for
    exactly this purpose (``_stop``, ``_events``, ``_current``,
    ``_wheel_state``); the ``_now`` timestamp stays a plain attribute because
    pipeline closures read ``engine._now`` directly.
    """
    queue = engine._queue
    wheel = engine._wheel
    stop = engine._stop
    events_cell = engine._events
    current_cell = engine._current
    version_cell = engine._wheel_state
    next_seq = engine._sequence.__next__
    discard_chain = engine._discard_chain
    events_done = events_cell[0]
    event_limit = float("inf") if max_events is None else max_events

    # Equal-period wheels (the uniform GALS plan and the synchronous machine)
    # fire in a fixed rotation: float rounding is monotonic, so per-chain
    # `time += period` never reorders chains, and exact-tie breaking by seq
    # agrees with the rotation because the chain that fired first also drew
    # its fresh seq first.  One hyperperiod is simply one pass over the
    # sorted chains, so the merged edge schedule needs no priority queue at
    # all.  The rotation is only valid while the next-edge times span less
    # than one period (guaranteed to persist once true); chains started more
    # than a period apart, and unequal periods, fall back to a min() over
    # the handful of chains.
    rotation = None
    period = wheel[0][5]
    priority = wheel[0][1]
    for chain in wheel:
        if chain[5] != period or chain[1] != priority:
            break
    else:
        rotation = sorted(wheel)
        if rotation[-1][0] - rotation[0][0] >= period:
            rotation = None
    index = 0
    wheel_size = len(wheel)
    wheel_version = version_cell[0]

    if stop_condition is None and max_events is None:
        # Leanest variant (every full processor run): no per-edge
        # stop-condition or event-budget checks -- the pipeline stops the
        # engine via stop().
        while not stop[0]:
            if rotation is not None:
                chain = rotation[index]
                index += 1
                if index == wheel_size:
                    index = 0
            else:
                chain = min(wheel)
            if chain[8]:            # CHAIN_CANCELLED
                discard_chain(chain)
                break
            time = chain[0]         # CHAIN_TIME
            if time > horizon:
                engine._now = until
                if events_done > events_cell[0]:
                    events_cell[0] = events_done
                return True, processed
            engine._now = time
            current_cell[0] = chain
            # callbacks observe the pre-event count, exactly as on the
            # generic path
            events_cell[0] = events_done
            chain[3](chain[4])      # CHAIN_CALLBACK(CHAIN_PARAM)
            current_cell[0] = None
            events_done += 1
            if chain[8]:
                discard_chain(chain)
                break
            chain[2] = next_seq()       # CHAIN_SEQ
            chain[0] = time + chain[5]  # CHAIN_TIME += CHAIN_PERIOD
            if queue or version_cell[0] != wheel_version:
                break   # one-shots scheduled / chains changed
        events_cell[0] = events_done
        return False, processed

    while not stop[0]:
        if rotation is not None:
            chain = rotation[index]
            index += 1
            if index == wheel_size:
                index = 0
        else:
            chain = min(wheel)
        if chain[8]:                # CHAIN_CANCELLED
            discard_chain(chain)
            break
        time = chain[0]             # CHAIN_TIME
        if time > horizon:
            engine._now = until
            if events_done > events_cell[0]:
                events_cell[0] = events_done
            return True, processed
        engine._now = time
        current_cell[0] = chain
        # callbacks observe the pre-event count, exactly as on the generic
        # path (step() increments after fire)
        events_cell[0] = events_done
        chain[3](chain[4])          # CHAIN_CALLBACK(CHAIN_PARAM)
        current_cell[0] = None
        events_done += 1
        if chain[8]:
            discard_chain(chain)
            break
        chain[2] = next_seq()       # CHAIN_SEQ
        chain[0] = time + chain[5]  # CHAIN_TIME += CHAIN_PERIOD
        processed += 1
        if stop_condition is not None:
            events_cell[0] = events_done
            if stop_condition():
                return True, processed
        if processed >= event_limit:
            if events_done > events_cell[0]:
                events_cell[0] = events_done
            return True, processed
        if queue or version_cell[0] != wheel_version:
            break   # one-shots scheduled / chains changed
    events_cell[0] = events_done
    return False, processed


# ------------------------------------------------------------ event wakeup
def wake_waiters(waiters):
    """Writeback waiter walk for the event wakeup scheme.

    ``waiters`` is a physical register's waiter list: every issue-queue entry
    blocked on that value.  Each live waiter's pending-operand count drops by
    one; entries whose last pending producer this was join their queue's
    age-ordered ready list.  Squashed waiters are dropped lazily.  The list
    is cleared afterwards (the register's value is now produced).
    """
    for waiter in waiters:
        if not waiter.squashed and waiter.pending_ops:
            pending = waiter.pending_ops - 1
            waiter.pending_ops = pending
            if pending == 0:
                queue = waiter.wakeup_queue
                if queue is not None:
                    queue.push_ready(waiter)
    waiters.clear()


# ---------------------------------------------------- synchronizer mapping
def sync_visible_at(time, phase, period, latency):
    """Visibility time of a flag raised at ``time`` under a capturing clock.

    This is the mixed-clock FIFO synchronizer edge mapping (inlined on the
    FIFO fast paths, shared here so tests can pin the exact arithmetic): the
    flag is captured by the first rising
    edge of the ``(phase, period)`` clock *strictly after* ``time`` and
    becomes observable ``latency`` (= sync depth x period) later.  Times
    before ``phase`` -- a clock that has not started, or a retimed clock's
    anchor in the future -- are captured by the first edge at ``phase``.
    """
    if time < phase:
        first_edge = phase
    else:
        first_edge = phase + (int((time - phase) / period) + 1) * period
    return first_edge + latency


# -------------------------------------------------------------- edge ticks
class SingleEdgeTick:
    """Rising-edge tick for a domain with one callback and no power probe.

    The explicit-state-object form of the closure previously built inline by
    :meth:`ClockDomain.bind`: per edge it reads the engine clock, ticks the
    single component, and advances the domain's cycle counter.
    """

    __slots__ = ("domain", "engine", "callback")

    def __init__(self, domain, engine, callback):
        self.domain = domain
        self.engine = engine
        self.callback = callback

    def __call__(self, _param):
        """One rising edge: tick the single component, count the cycle."""
        domain = self.domain
        time = self.engine._now
        cycle = domain.cycle
        self.callback(cycle, time)
        domain.cycle = cycle + 1


class MultiEdgeTick:
    """Rising-edge tick for a multi-callback (or empty) domain, no probe.

    ``callbacks`` is the domain's in-place-mutable callback list, so
    post-bind component registration keeps working exactly as it did with the
    closure form.
    """

    __slots__ = ("domain", "engine", "callbacks")

    def __init__(self, domain, engine, callbacks):
        self.domain = domain
        self.engine = engine
        self.callbacks = callbacks

    def __call__(self, _param):
        """One rising edge: tick every component and hook, count the cycle."""
        domain = self.domain
        time = self.engine._now
        cycle = domain.cycle
        for callback in self.callbacks:
            callback(cycle, time)
        domain.cycle = cycle + 1


class ProbedSingleEdgeTick:
    """Single-callback edge tick with the deferred power probe fused in.

    A quiescent edge (no gated cell has pending activity and the voltage
    matches the open accounting run) is a single run-counter increment with
    no Python call -- the same fast path the closure form had.
    """

    __slots__ = ("domain", "engine", "callback", "gated_cells", "state",
                 "active_edge")

    def __init__(self, domain, engine, callback, probe):
        self.domain = domain
        self.engine = engine
        self.callback = callback
        self.gated_cells, self.state, self.active_edge = probe

    def __call__(self, _param):
        """One rising edge: tick the component, account the edge, count the cycle."""
        domain = self.domain
        time = self.engine._now
        cycle = domain.cycle
        self.callback(cycle, time)
        domain.last_edge_time = time
        state = self.state
        if domain.voltage == state[0]:
            for cell in self.gated_cells:
                if cell[0]:
                    self.active_edge()
                    break
            else:
                state[1] += 1
        else:
            self.active_edge()
        domain.cycle = cycle + 1


class ProbedMultiEdgeTick:
    """Multi-callback edge tick with the deferred power probe fused in."""

    __slots__ = ("domain", "engine", "callbacks", "gated_cells", "state",
                 "active_edge")

    def __init__(self, domain, engine, callbacks, probe):
        self.domain = domain
        self.engine = engine
        self.callbacks = callbacks
        self.gated_cells, self.state, self.active_edge = probe

    def __call__(self, _param):
        """One rising edge: tick every component, account the edge, count the cycle."""
        domain = self.domain
        time = self.engine._now
        cycle = domain.cycle
        for callback in self.callbacks:
            callback(cycle, time)
        domain.last_edge_time = time
        state = self.state
        if domain.voltage == state[0]:
            for cell in self.gated_cells:
                if cell[0]:
                    self.active_edge()
                    break
            else:
                state[1] += 1
        else:
            self.active_edge()
        domain.cycle = cycle + 1
