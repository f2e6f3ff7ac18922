"""The engine hot core: wheel run loop, edge tick, wakeups.

This module holds the per-event code of the simulator: the clock-wheel run
loop (the body of :meth:`SimulationEngine.run`), the one clock-edge tick
:meth:`ClockDomain.bind` schedules (for every domain but an execution
cluster's, which fuses its own edge), and the event-wakeup waiter walk
(extracted from the execution unit's inlined writeback).  It keeps explicit
state objects with ``__slots__`` instead of closures, flat locals and no
dynamic dispatch.

Behavioural contract: every function here is **bit-identical** to the inline
code it replaced (the golden regression suite pins the results).

The module intentionally imports nothing from the rest of the package: it is
a leaf, importable from ``sim.clock`` and ``uarch.execute`` without cycles.
Chain records are the 8-element lists documented in :mod:`repro.sim.event`
(indices used literally here for speed: 0=time, 1=priority, 2=seq,
3=callback, 4=param, 5=period, 7=cancelled).
"""


# --------------------------------------------------------------- run loop
def run_wheel(engine, until):
    """Run one clock-wheel segment of :meth:`SimulationEngine.run`.

    The caller guarantees the wheel is non-empty on entry.  The segment ends
    when the wheel membership changes (a chain scheduled, cancelled or
    retired), a stop is requested, or the next event lies past ``until``.
    Returns True in the last case, after moving the engine clock to
    ``until``: the run is over.  Otherwise the caller re-examines the wheel.

    Engine state is exchanged through the mutable cells the engine exposes for
    exactly this purpose (``_stop``, ``_events``, ``_current``,
    ``_wheel_state``); the ``_now`` timestamp stays a plain attribute because
    pipeline closures read ``engine._now`` directly.
    """
    wheel = engine._wheel
    stop = engine._stop
    events_cell = engine._events
    current_cell = engine._current
    version_cell = engine._wheel_state
    next_seq = engine._sequence.__next__
    discard_chain = engine._discard_chain
    events_done = events_cell[0]
    horizon = float("inf") if until is None else until

    # Equal-period wheels (the uniform GALS plan and the synchronous machine)
    # fire in a fixed rotation: float rounding is monotonic, so per-chain
    # `time += period` never reorders chains, and exact-tie breaking by seq
    # agrees with the rotation because the chain that fired first also drew
    # its fresh seq first.  One hyperperiod is simply one pass over the
    # sorted chains, so the merged edge schedule needs no priority queue at
    # all.  The rotation is only valid while the next-edge times span less
    # than one period (guaranteed to persist once true); chains started more
    # than a period apart, unequal periods and pending one-shots (period
    # None) fall back to a min() over the handful of chains.
    rotation = None
    period = wheel[0][5]
    priority = wheel[0][1]
    for chain in wheel:
        if chain[5] != period or chain[1] != priority:
            break
    else:
        rotation = sorted(wheel)
        if period is None or rotation[-1][0] - rotation[0][0] >= period:
            rotation = None
    index = 0
    wheel_size = len(wheel)
    wheel_version = version_cell[0]

    while not stop[0]:
        if rotation is not None:
            chain = rotation[index]
            index += 1
            if index == wheel_size:
                index = 0
        else:
            chain = min(wheel)
        if chain[7]:                # CHAIN_CANCELLED
            discard_chain(chain)
            break
        time = chain[0]             # CHAIN_TIME
        if time > horizon:
            engine._now = until
            events_cell[0] = events_done
            return True
        engine._now = time
        current_cell[0] = chain
        # callbacks observe the pre-event count
        events_cell[0] = events_done
        chain[3](chain[4])          # CHAIN_CALLBACK(CHAIN_PARAM)
        current_cell[0] = None
        events_done += 1
        if chain[7]:                # cancelled, or a one-shot that retired
            discard_chain(chain)
            break
        chain[2] = next_seq()       # CHAIN_SEQ
        chain[0] = time + chain[5]  # CHAIN_TIME += CHAIN_PERIOD
        if version_cell[0] != wheel_version:
            break   # chains scheduled or cancelled
    events_cell[0] = events_done
    return False


# ------------------------------------------------------------ event wakeup
def wake_waiters(waiters):
    """Writeback waiter walk of the event-driven wakeup.

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


# -------------------------------------------------------------- edge tick
class EdgeTick:
    """Rising-edge tick of a clock domain: components, then power probe.

    ``callbacks`` is the tuple of the components' bound ``clock_edge``
    methods that :meth:`ClockDomain.bind` freezes in registration order;
    ``probe`` is the domain's power-accounting call (a no-op for a domain
    without power blocks).  Per edge it reads the engine clock, ticks every
    component, records the edge time, accounts the edge and advances the
    domain's cycle counter.
    """

    __slots__ = ("domain", "engine", "callbacks", "active_edge")

    def __init__(self, domain, engine, callbacks, probe):
        self.domain = domain
        self.engine = engine
        self.callbacks = callbacks
        self.active_edge = probe

    def __call__(self, _param):
        """One rising edge: tick every component, account the edge, count the cycle."""
        domain = self.domain
        time = self.engine._now
        cycle = domain.cycle
        for callback in self.callbacks:
            callback(cycle, time)
        domain.last_edge_time = time
        self.active_edge()
        domain.cycle = cycle + 1
