"""Shared, cached experiment results for the figure-reproduction benchmarks.

Figures 5-10 all read from the same set of base-vs-GALS runs and Figures 11-13
from the same DVFS runs, so those are computed once per benchmark session and
shared.  Timing is not measured here: ``perfbench/`` is the benchmark.
"""

import pytest

from repro.core.dvfs import (GCC_GALS_1, GCC_GALS_2, GENERIC_SLOWDOWN, IJPEG_SWEEP,
                             PERL_FP_BY_3)
from repro.core.experiments import (baseline_comparison, selective_slowdown,
                                    slowdown_sweep)
from repro.workloads.profiles import DVFS_CASE_STUDY_BENCHMARKS

#: Trace length used for the reproduced figures.  Long enough for steady-state
#: behaviour of the synthetic workloads, short enough to keep the whole
#: harness in the minutes range on a laptop.
FIGURE_INSTRUCTIONS = 1500

#: Benchmarks shown in Figures 5-10 (mirrors the paper's Spec95 + Mediabench mix).
FIGURE_BENCHMARKS = (
    "compress", "gcc", "go", "ijpeg", "li", "perl",
    "applu", "fpppp", "swim",
    "adpcm", "epic", "mpeg2",
)


@pytest.fixture(scope="session")
def suite_rows():
    """Base-vs-GALS comparison rows for the full benchmark list (Figs 5-10)."""
    return baseline_comparison(FIGURE_BENCHMARKS,
                               num_instructions=FIGURE_INSTRUCTIONS)


@pytest.fixture(scope="session")
def figure11_results():
    """Generic slowdown on perl/ijpeg/gcc plus the perl FP/3 case (Fig. 11)."""
    results = [selective_slowdown(benchmark, GENERIC_SLOWDOWN,
                                  num_instructions=FIGURE_INSTRUCTIONS)
               for benchmark in DVFS_CASE_STUDY_BENCHMARKS]
    results.append(selective_slowdown("perl", PERL_FP_BY_3,
                                      num_instructions=FIGURE_INSTRUCTIONS))
    return results


@pytest.fixture(scope="session")
def figure12_results():
    """The ijpeg memory-clock sweep (gals-00/10/20/50, Fig. 12)."""
    return slowdown_sweep("ijpeg", IJPEG_SWEEP,
                          num_instructions=FIGURE_INSTRUCTIONS)


@pytest.fixture(scope="session")
def figure13_results():
    """gcc with the FP clock halved (gals-1) and divided by three (gals-2)."""
    return slowdown_sweep("gcc", (GCC_GALS_1, GCC_GALS_2),
                          num_instructions=FIGURE_INSTRUCTIONS)
