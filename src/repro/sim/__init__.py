"""Event-driven simulation engine (paper Section 4.2).

Public surface:

* :class:`~repro.sim.engine.SimulationEngine` -- the event queue (a clock
  wheel of chain records: callback, param, time, priority and, for clocked
  systems, a period) + global timer.
* :class:`~repro.sim.event.Event` -- the handle of one scheduled chain,
  through which a caller cancels it.
* :class:`~repro.sim.clock.Clock` / :class:`~repro.sim.clock.ClockDomain` --
  periodic events modelling local clocks and the synchronous blocks they drive.
* :class:`~repro.sim.channel.SyncQueue` -- same-domain pipeline buffer.
"""

from .channel import Channel, SyncQueue
from .clock import Clock, ClockDomain
from .engine import SimulationEngine
from .event import Event, SimulationError

__all__ = [
    "Channel",
    "Clock",
    "ClockDomain",
    "Event",
    "SimulationEngine",
    "SimulationError",
    "SyncQueue",
]
