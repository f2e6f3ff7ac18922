"""Event primitives for the event-driven simulation engine.

The paper (Section 4.2) describes a general-purpose event-driven simulation
engine whose event-queue nodes carry: a callback function, a parameter, a
scheduled time, a priority used to break ties between simultaneous events,
and -- for periodic events that model clocks -- a repetition period.  This
module defines that node type.

The node is deliberately *not* a dataclass: events are the single most
allocated object on the simulator's hot path, so the class uses ``__slots__``
and a hand-written ``__init__``, and the engine keeps ``(time, priority,
seq)``-keyed tuples in its heap so that ordering never goes through a
Python-level ``__lt__`` at all.  The rich comparisons below exist for API
compatibility (events can still be sorted directly) and preserve the seed
semantics: events order by ``(time, priority, seq)``.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, List, Optional

#: Monotonic tie-breaker so that events with equal (time, priority) preserve
#: their insertion order, which keeps simulations fully deterministic.
_SEQUENCE = itertools.count()

#: Column indices of the clock-wheel chain records kept by the engine.  A
#: chain is a plain list (element-wise list comparison is done in C, so
#: ``min(wheel)`` orders chains by exactly ``(time, priority, seq)`` without
#: ever reaching the non-comparable columns -- seq is globally unique).
CHAIN_TIME, CHAIN_PRIORITY, CHAIN_SEQ, CHAIN_CALLBACK, CHAIN_PARAM, \
    CHAIN_PERIOD, CHAIN_NAME, CHAIN_HANDLE, CHAIN_CANCELLED = range(9)


class Event:
    """A single scheduled occurrence in the simulation.

    Events compare by ``(time, priority, seq)``.  Lower priority numbers
    execute first among events scheduled at the same instant (the paper uses
    the same convention).
    """

    __slots__ = ("time", "priority", "seq", "callback", "param", "period",
                 "cancelled", "name", "_chain", "_cancel_hook")

    def __init__(
        self,
        time: float,
        priority: int = 0,
        seq: Optional[int] = None,
        callback: Optional[Callable[[Any], None]] = None,
        param: Any = None,
        period: Optional[float] = None,
        cancelled: bool = False,
        name: str = "",
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = next(_SEQUENCE) if seq is None else seq
        self.callback = callback
        self.param = param
        self.period = period
        self.cancelled = cancelled
        self.name = name
        #: clock-wheel chain this event is the handle of (engine-internal)
        self._chain: Optional[List[Any]] = None
        #: notification called once when the event is first cancelled
        #: (engine-internal, used to track cancelled-event counts)
        self._cancel_hook: Optional[Callable[["Event"], None]] = None

    # ------------------------------------------------------------- ordering
    def _key(self):
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: "Event") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "Event") -> bool:
        return self._key() <= other._key()

    def __gt__(self, other: "Event") -> bool:
        return self._key() > other._key()

    def __ge__(self, other: "Event") -> bool:
        return self._key() >= other._key()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None  # mutable, ordered by key -- same as the former dataclass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Event(time={self.time!r}, priority={self.priority!r}, "
                f"seq={self.seq!r}, period={self.period!r}, "
                f"cancelled={self.cancelled!r}, name={self.name!r})")

    # ----------------------------------------------------------- behaviour
    def cancel(self) -> None:
        """Mark the event so the engine skips it (and stops re-scheduling it)."""
        if self.cancelled:
            return
        self.cancelled = True
        chain = self._chain
        if chain is not None:
            chain[CHAIN_CANCELLED] = True
        hook = self._cancel_hook
        if hook is not None:
            hook(self)

    def fire(self) -> None:
        """Invoke the callback with its parameter.

        An event without a callback cannot be fired: the engine refuses to
        schedule one, and firing one constructed by hand raises instead of
        silently doing nothing.
        """
        callback = self.callback
        if callback is None:
            raise SimulationError(f"event {self.name!r} has no callback")
        callback(self.param)


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation engine (e.g. scheduling in the past)."""
