"""Synchronizer latency model.

Signals crossing between two unrelated clock domains must pass through a
brute-force synchronizer (a chain of flip-flops clocked by the receiving
domain) to keep the probability of metastability-induced failure negligible
(paper Section 3, referencing Rabaey).  The architectural consequence the
paper models is *latency*: a flag or data word produced in one domain becomes
observable in the other domain only a couple of receiving-domain cycles later.

:class:`Synchronizer` converts a production time in the sending domain into
the earliest observation time in the receiving domain.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.clock import Clock


@dataclass
class Synchronizer:
    """A ``depth``-stage flip-flop synchronizer into ``receiving_clock``.

    ``depth`` = 2 is the customary two-flop synchronizer; the Chelcea/Nowick
    FIFO effectively hides part of this latency in the steady state, which can
    be modelled by reducing ``depth`` to 1 for the data path.
    """

    receiving_clock: Clock
    depth: int = 2

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise ValueError("synchronizer depth must be non-negative")

    def observable_at(self, produced_at: float) -> float:
        """Earliest time the receiving domain can act on a signal.

        The signal is captured by the first receiving-domain edge strictly
        after ``produced_at`` and must then ride through ``depth`` flops, so it
        is usable ``depth`` receiving cycles after that capturing edge.
        """
        clock = self.receiving_clock
        if produced_at < clock.phase:
            first_edge = clock.phase
        else:
            elapsed = produced_at - clock.phase
            cycles = int(elapsed / clock.period)
            first_edge = clock.phase + (cycles + 1) * clock.period
            # A signal arriving exactly on an edge misses it (setup time).
        return first_edge + self.depth * clock.period


def synchronization_failure_probability(
    clock_frequency_ghz: float,
    data_rate_ghz: float,
    resolution_time_ns: float,
    time_constant_ns: float = 0.010,
) -> float:
    """Mean-time-between-failures style metastability estimate.

    The paper explicitly does *not* model synchronization failures because
    their probability is "minuscule (but non-zero)"; this helper exists so the
    claim can be checked quantitatively.  It returns the probability that any
    given synchronization attempt fails to resolve within
    ``resolution_time_ns`` using the standard exponential model
    ``P = f_clk * f_data * T_w * exp(-t_r / tau)`` normalised per attempt.
    """
    import math

    if resolution_time_ns < 0:
        raise ValueError("resolution time must be non-negative")
    window_ns = 0.001  # aperture window, ~1 ps for a modern flop
    per_second_rate = (clock_frequency_ghz * 1e9) * (data_rate_ghz * 1e9) * (window_ns * 1e-9)
    failures_per_second = per_second_rate * math.exp(-resolution_time_ns / time_constant_ns)
    attempts_per_second = data_rate_ghz * 1e9
    if attempts_per_second == 0:
        return 0.0
    return min(1.0, failures_per_second / attempts_per_second)
