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

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Protocol

from .engine import SimulationEngine
from .event import SimulationError
from .hotcore import (MultiEdgeTick, ProbedMultiEdgeTick, ProbedSingleEdgeTick,
                      SingleEdgeTick)


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

    def scaled(self, slowdown: float, name: Optional[str] = None) -> "Clock":
        """Return a copy slowed down by ``slowdown`` (1.1 == 10 % slower)."""
        if slowdown <= 0:
            raise SimulationError("slowdown factor must be positive")
        return Clock(name=name or self.name, period=self.period * slowdown,
                     phase=self.phase)


class CallablePeriod:
    """Adapter giving a ``clock_period()`` callable the ``.period`` interface.

    Pipeline units read the clock period on per-cycle hot paths; handing them
    the :class:`Clock` object (mutated in place by mid-run retiming) turns
    that into one attribute read.  Units constructed with only a legacy
    callable wrap it in this adapter so the hot path stays uniform.
    """

    __slots__ = ("_fn",)

    def __init__(self, fn: Callable[[], float]) -> None:
        self._fn = fn

    @property
    def period(self) -> float:
        """Current period from the wrapped callable."""
        return self._fn()


class ClockDomain:
    """A locally synchronous block: one clock, one voltage, many components.

    The domain keeps its own cycle counter.  Components registered with
    :meth:`add_component` are ticked in registration order on every rising
    edge; the GALS processor registers pipeline stages in reverse pipeline
    order so that, within a cycle, downstream stages consume before upstream
    stages produce (the standard cycle-accurate simulation idiom the paper
    describes for the single-clock case).
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
        #: absolute time of the most recent rising edge ticked with a power
        #: probe attached (the default elapsed time of an energy breakdown)
        self.last_edge_time = 0.0
        self._components: List[ClockedComponent] = []
        self._edge_hooks: List[Callable[[int, float], None]] = []
        #: flat call list ticked per edge: every component's bound
        #: ``clock_edge`` followed by every edge hook, in registration order
        self._edge_callbacks: List[Callable[[int, float], None]] = []
        #: deferred power accounting fused into the edge tick -- see
        #: :meth:`attach_power_probe`
        self._power_probe: Optional[tuple] = None
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
        """Register a component to be ticked on every rising edge."""
        self._guard_bound_specialized()
        self._components.append(component)
        self._rebuild_edge_callbacks()

    def add_edge_hook(self, hook: Callable[[int, float], None]) -> None:
        """Register a callback ``hook(cycle, time)`` run after components tick.

        Used by tests and ad-hoc instrumentation; the power accountant fuses
        its accounting into the edge closure instead (attach_power_probe).
        """
        self._guard_bound_specialized()
        self._edge_hooks.append(hook)
        self._rebuild_edge_callbacks()

    def _guard_bound_specialized(self) -> None:
        # A domain bound with a single callback uses a direct-call closure;
        # its callback set can no longer be grown in place.  Multi-callback
        # (and empty) domains keep the in-place-mutable list closure, so
        # post-bind registration keeps working there.
        if self._engine is not None and getattr(self, "_bound_single", False):
            raise SimulationError(
                f"domain {self.name!r}: cannot add components or hooks while "
                "bound with a fused single-component edge; register before "
                "bind()")

    def _rebuild_edge_callbacks(self) -> None:
        # mutated in place: the bound edge closure captures the list object
        self._edge_callbacks[:] = (
            [component.clock_edge for component in self._components]
            + list(self._edge_hooks))

    def attach_power_probe(self, probe: tuple) -> None:
        """Fuse a deferred power-accounting probe into this domain's tick.

        ``probe`` is ``(gated_cells, state, active_edge)`` as built by
        :meth:`repro.power.accounting.PowerAccountant._make_probe`: the edge
        closure runs the accounting *inline* after the components tick --
        on a quiescent edge (no gated cell has pending activity and the
        voltage matches the open run) it is a single run-counter increment
        with no Python call at all; otherwise it calls ``active_edge``.

        Attaching after the domain is bound falls back to an equivalent edge
        hook (the bound closure reads the callback list in place), keeping
        post-bind registration working for domains bound with a mutable
        callback list.  A domain bound with a fused single-component edge
        has no such list; attaching there raises -- register power blocks
        before :meth:`bind` (every processor build does).
        """
        if self._engine is None:
            self._power_probe = probe
            return
        if getattr(self, "_bound_single", False):
            raise SimulationError(
                f"domain {self.name!r}: cannot attach a power probe while "
                "bound with a fused single-component edge; register power "
                "blocks before bind()")
        gated_cells, state, active_edge = probe

        def hook(_cycle: int, time: float, domain=self) -> None:
            """Per-edge accounting fallback hook (post-bind attachment)."""
            domain.last_edge_time = time
            if domain.voltage == state[0]:
                for cell in gated_cells:
                    if cell[0]:
                        active_edge()
                        break
                else:
                    state[1] += 1
            else:
                active_edge()

        self.add_edge_hook(hook)

    # --------------------------------------------------------------- clocking
    def bind(self, engine: SimulationEngine) -> None:
        """Attach this domain to an engine by scheduling its periodic edge event.

        The edge tick is specialised at bind time: a domain with a single
        component whose class provides ``make_fused_edge`` (the execution
        clusters) supplies its own fully fused closure; every other domain
        gets one of the explicit edge-tick state objects of
        :mod:`repro.sim.hotcore` -- single-callback domains a direct
        call instead of a callback loop, multi-callback (and empty) domains
        the in-place-mutable callback list so post-bind registration
        continues to work.  The deferred power accounting probe is fused into
        every variant: a quiescent edge is a single run-counter increment
        with no Python call.
        """
        self._engine = engine
        callbacks = self._edge_callbacks
        probe = self._power_probe
        single = callbacks[0] if len(callbacks) == 1 else None
        self._bound_single = single is not None

        if (len(self._components) == 1 and not self._edge_hooks
                and hasattr(self._components[0], "make_fused_edge")):
            on_edge = self._components[0].make_fused_edge(self, engine, probe)
        elif probe is not None:
            if single is not None:
                on_edge = ProbedSingleEdgeTick(self, engine, single, probe)
            else:
                on_edge = ProbedMultiEdgeTick(self, engine, callbacks, probe)
        elif single is not None:
            on_edge = SingleEdgeTick(self, engine, single)
        else:
            on_edge = MultiEdgeTick(self, engine, callbacks)

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
            self._bound_single = False

    def _on_edge(self, _param: object) -> None:
        engine = self._engine
        time = engine._now if engine is not None else 0.0
        cycle = self.cycle
        for callback in self._edge_callbacks:
            callback(cycle, time)
        self.cycle = cycle + 1

    # ------------------------------------------------------------------ DVFS
    def apply_slowdown(self, slowdown: float, voltage: Optional[float] = None) -> None:
        """Slow the clock by ``slowdown`` and optionally change the voltage.

        Must be called before :meth:`bind`; mid-run frequency changes go
        through :meth:`retime` instead (the paper's experiments set slowdowns
        statically per run; the adaptive controllers re-bind domains online).
        """
        if self._engine is not None:
            raise SimulationError("cannot change frequency after the domain is bound")
        self.clock = self.clock.scaled(slowdown)
        if voltage is not None:
            self.voltage = voltage

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
                f"cannot retime unbound domain {self.name!r}; use "
                "apply_slowdown before bind")
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
