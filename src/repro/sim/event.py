"""Event primitives for the event-driven simulation engine.

The paper (Section 4.2) describes a general-purpose event-driven simulation
engine whose event-queue nodes carry: a callback function, a parameter, a
scheduled time, a priority used to break ties between simultaneous events,
and -- for periodic events that model clocks -- a repetition period.

Here that node is a *chain record*: a plain list on the engine's clock
wheel, one per scheduled event.  A periodic chain re-arms itself after every
fire; a one-shot chain (period ``None``) fires once and retires.  Scheduling
returns an :class:`Event`, the handle a caller cancels the chain through.
"""

from __future__ import annotations

import itertools

#: Monotonic tie-breaker so that events with equal (time, priority) preserve
#: their insertion order, which keeps simulations fully deterministic.
_SEQUENCE = itertools.count()

#: Column indices of the chain records kept on the clock wheel.  A chain is
#: a plain list (element-wise list comparison is done in C, so
#: ``min(wheel)`` orders chains by exactly ``(time, priority, seq)`` without
#: ever reaching the non-comparable columns -- seq is globally unique).
CHAIN_TIME, CHAIN_PRIORITY, CHAIN_SEQ, CHAIN_CALLBACK, CHAIN_PARAM, \
    CHAIN_PERIOD, CHAIN_NAME, CHAIN_CANCELLED = range(8)


class Event:
    """Handle of one scheduled chain, returned by the engine's schedulers."""

    __slots__ = ("_chain",)

    def __init__(self, chain: list) -> None:
        self._chain = chain

    def cancel(self) -> None:
        """Stop the chain: a pending occurrence never fires and a periodic
        chain does not re-arm (cancelling a fired one-shot is harmless)."""
        self._chain[CHAIN_CANCELLED] = True


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation engine (e.g. scheduling in the past)."""
