"""Clock generators and clock domains.

Each locally synchronous block of a GALS system has its own clock, generated
locally (the paper assumes ring oscillators, Section 3).  A
:class:`Clock` is defined by a period and a starting phase; a
:class:`ClockDomain` groups a clock with the synchronous components it drives
and the supply voltage it runs at.  The domain registers a periodic event with
the simulation engine; every occurrence of that event is one rising edge and
ticks every registered component in registration order.

The synchronous baseline processor is simply a system with a single clock
domain containing every component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Protocol

from .engine import SimulationEngine
from .event import SimulationError
from .hotcore import EdgeTick


class ClockedComponent(Protocol):
    """Anything that does work on a rising clock edge."""

    def clock_edge(self, cycle: int, time: float) -> None:  # pragma: no cover
        """Do one cycle of work at rising edge ``cycle`` (absolute ``time`` ns)."""
        ...


@dataclass
class Clock:
    """A free-running local clock.

    Parameters
    ----------
    name:
        Identifier used in reports ("fetch", "integer", ...).
    period:
        Clock period in nanoseconds.
    phase:
        Offset of the first rising edge, in nanoseconds, within ``[0, period)``.
        GALS clocks have arbitrary relative phase; the paper sets each phase to
        a random value at run time.
    """

    name: str
    period: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise SimulationError(f"clock {self.name!r}: period must be positive")
        if self.phase < 0:
            raise SimulationError(f"clock {self.name!r}: phase must be non-negative")
        self.phase = self.phase % self.period

    @property
    def frequency(self) -> float:
        """Frequency in GHz (period is in ns)."""
        return 1.0 / self.period

    def edge_time(self, cycle: int) -> float:
        """Absolute time of rising edge number ``cycle`` (0-based)."""
        return self.phase + cycle * self.period

    def cycles_elapsed(self, time: float) -> int:
        """Number of rising edges that have occurred at or before ``time``."""
        if time < self.phase:
            return 0
        return int((time - self.phase) / self.period) + 1


def _no_probe() -> None:
    """Power probe of a domain without power blocks: accounts nothing."""


class ClockDomain:
    """A locally synchronous block: one clock, one voltage, many components.

    The domain keeps its own cycle counter.  Components registered with
    :meth:`add_component` are ticked in registration order on every rising
    edge, then the power probe (:meth:`attach_power_probe`) accounts the
    edge; the GALS processor registers pipeline stages in reverse pipeline
    order so that, within a cycle, downstream stages consume before upstream
    stages produce (the standard cycle-accurate simulation idiom the paper
    describes for the single-clock case).  Components and the probe are
    registered before :meth:`bind`, which freezes them into the edge tick.
    """

    def __init__(
        self,
        clock: Clock,
        voltage: float = 1.0,
        nominal_voltage: Optional[float] = None,
        priority: int = 0,
    ) -> None:
        self.clock = clock
        self.voltage = voltage
        self.nominal_voltage = nominal_voltage if nominal_voltage is not None else voltage
        self.priority = priority
        self.cycle = 0
        #: absolute time of the most recent rising edge (the default elapsed
        #: time of an energy breakdown)
        self.last_edge_time = 0.0
        self._components: List[ClockedComponent] = []
        #: power accounting called by the edge tick -- see
        #: :meth:`attach_power_probe`
        self._power_probe: Callable[[], None] = _no_probe
        self._engine: Optional[SimulationEngine] = None

    # ------------------------------------------------------------ composition
    @property
    def name(self) -> str:
        """The domain's name (same as its clock's)."""
        return self.clock.name

    @property
    def period(self) -> float:
        """The domain clock's current period, in ns."""
        return self.clock.period

    @property
    def frequency(self) -> float:
        """The domain clock's current frequency, in GHz."""
        return self.clock.frequency

    def add_component(self, component: ClockedComponent) -> None:
        """Register a component to be ticked on every rising edge (before bind)."""
        self._require_unbound()
        self._components.append(component)

    def attach_power_probe(self, probe: Callable[[], None]) -> None:
        """Fuse a power-accounting probe into this domain's tick (before bind).

        ``probe`` is the ``active_edge`` callable built by
        :meth:`repro.power.accounting.PowerAccountant._make_probe`: the edge
        tick calls it once per edge, after the components tick (on an edge
        with no pending activity it only advances the accountant's edge
        counter).
        """
        self._require_unbound()
        self._power_probe = probe

    def _require_unbound(self) -> None:
        # bind() freezes the components and the probe into the edge tick
        if self._engine is not None:
            raise SimulationError(
                f"domain {self.name!r} is bound: register components and "
                "power blocks before bind()")

    # --------------------------------------------------------------- clocking
    def bind(self, engine: SimulationEngine) -> None:
        """Attach this domain to an engine by scheduling its periodic edge event.

        A domain whose single component provides ``make_fused_edge`` (an
        execution cluster) gets that component's fully fused closure; every
        other domain gets a :class:`~repro.sim.hotcore.EdgeTick` over the
        components' ``clock_edge`` methods, frozen here in registration
        order.  Either calls the power probe once per edge.  :meth:`retime`
        binds a bound domain again.
        """
        self._engine = engine
        components = self._components
        probe = self._power_probe
        if len(components) == 1 and hasattr(components[0], "make_fused_edge"):
            on_edge = components[0].make_fused_edge(self, engine, probe)
        else:
            on_edge = EdgeTick(
                self, engine,
                tuple(component.clock_edge for component in components), probe)

        engine.schedule_periodic(
            start=self.clock.phase,
            period=self.clock.period,
            callback=on_edge,
            priority=self.priority,
            name=f"clock:{self.clock.name}",
        )

    def unbind(self) -> None:
        """Stop this domain's clock (cancels its periodic event chain)."""
        if self._engine is not None:
            self._engine.cancel_chain(f"clock:{self.clock.name}")
            self._engine = None

    # ------------------------------------------------------------------ DVFS
    def retime(self, period: float, voltage: Optional[float] = None) -> float:
        """Change a *bound* domain's clock period (and optionally voltage)
        mid-run; returns the anchor time of the retimed schedule.

        The edge already scheduled keeps its time -- a local ring oscillator
        cannot retract a rising edge that is in flight -- and becomes the
        anchor of the new schedule: edges fire at ``anchor + k * period``.
        The domain's periodic chain is cancelled and re-scheduled, which the
        clock-wheel scheduler supports mid-run (the run loop re-reads the
        wheel whenever its membership version changes), and the cycle counter
        continues uninterrupted.

        After a retime, ``clock.phase`` holds the *absolute* anchor time
        rather than a phase within ``[0, period)``: every consumer of the
        clock's edge arithmetic (the mixed-clock FIFO synchronizers) treats
        times before the anchor as "before the first edge", which is exactly
        the behaviour of a freshly started oscillator.
        """
        if period <= 0:
            raise SimulationError(
                f"clock {self.name!r}: retimed period must be positive")
        engine = self._engine
        if engine is None:
            raise SimulationError(
                f"cannot retime unbound domain {self.name!r}")
        anchor = engine.next_chain_time(f"clock:{self.clock.name}")
        if anchor is None:
            raise SimulationError(
                f"domain {self.name!r} has no pending clock edge to retime")
        engine.cancel_chain(f"clock:{self.clock.name}")
        # Mutate the Clock in place so every holder of the reference (the
        # mixed-clock FIFOs and their synchronizers) observes the new timing.
        self.clock.period = period
        self.clock.phase = anchor
        if voltage is not None:
            self.voltage = voltage
        self.bind(engine)
        return anchor

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ClockDomain(name={self.name!r}, period={self.period:.4f} ns, "
                f"voltage={self.voltage:.3f} V, cycle={self.cycle})")
