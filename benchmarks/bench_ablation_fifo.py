"""Ablation: sensitivity of the GALS penalty to the FIFO interface design.

DESIGN.md calls out the mixed-clock FIFO latency as the central design choice
of the GALS machine (Section 3.2 of the paper argues for the Chelcea/Nowick
low-latency FIFO over conservative synchronizer-based interfaces and over
pausible clocking).  This ablation quantifies that choice: the GALS slowdown
grows steeply as the per-crossing synchronization latency rises.
"""

import pytest

from repro.async_comm.pausible import PausibleClockModel
from repro.core.config import ProcessorConfig
from repro.core.experiments import run_pair

#: figure-reproduction benchmarks are tier-2: heavy, skipped by tier-1
pytestmark = pytest.mark.slow


def _relative_performance(fifo_sync, forwarding_sync):
    config = ProcessorConfig(fifo_sync_cycles=fifo_sync,
                             forwarding_sync_cycles=forwarding_sync)
    row = run_pair("perl", num_instructions=800, config=config)
    return row.relative_performance


def test_ablation_fifo_latency():
    low_latency = _relative_performance(0, 0.5)
    default = _relative_performance(1, 1.0)
    conservative = _relative_performance(2, 2.0)

    print("\n=== Ablation: inter-domain synchronization latency (perl) ===")
    print(f"low-latency FIFO (0 sync cycles, 0.5 fwd): perf {low_latency:.3f}")
    print(f"default        (1 sync cycle,  1.0 fwd): perf {default:.3f}")
    print(f"conservative   (2 sync cycles, 2.0 fwd): perf {conservative:.3f}")

    assert low_latency > default > conservative
    # A conservative dual-flop interface more than doubles the GALS penalty.
    assert (1 - conservative) > 1.5 * (1 - default)


def test_ablation_pausible_clocking():
    """The stretchable-clock alternative: with a transaction on essentially
    every cycle, the effective frequency is set by the communication rate
    (Section 3.2's argument for rejecting it in a processor pipeline)."""
    model = PausibleClockModel(nominal_period=1.0, stretch_per_transaction=0.75)

    slowdown_at_full_rate = model.slowdown(1.0)
    print("\n=== Ablation: pausible (stretchable) clocking ===")
    for rate in (0.0, 0.25, 0.5, 1.0):
        print(f"transactions/cycle {rate:.2f}: effective slowdown "
              f"{model.slowdown(rate):.2f}x")
    # at pipeline-like communication rates the clock is badly degraded,
    # far beyond the ~10% FIFO-based GALS penalty
    assert slowdown_at_full_rate > 1.5
