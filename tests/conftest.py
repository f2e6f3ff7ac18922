"""Shared fixtures: cached base/GALS runs used by several integration tests.

Cycle-accurate runs are the expensive part of this test suite, so the standard
"perl" base/GALS pair (and one DVFS run) are computed once per session and
shared by every test that only needs to *inspect* results.

Property tests draw their examples from a seed derived from each test
(``derandomize``), so every tier-1 run, in any file order, checks the same
examples, and a red run means the code changed.  The nightly ``fuzz`` CI
job explores instead: it loads the ``fuzz`` profile, which draws fresh
examples from ``--hypothesis-seed``.  A property test that fails prints its
``@reproduce_failure`` blob, so a failure seen once can be replayed from the
log.
"""

import pytest
from hypothesis import settings

from repro.core.config import ProcessorConfig
from repro.core.experiments import run_pair, selective_slowdown
from repro.core.dvfs import GCC_GALS_1

settings.register_profile("repro", derandomize=True, print_blob=True)
settings.register_profile("fuzz", print_blob=True)
settings.load_profile("repro")

#: Small but representative trace length for integration tests.
TEST_INSTRUCTIONS = 900


@pytest.fixture(scope="session")
def small_config():
    return ProcessorConfig()


@pytest.fixture(scope="session")
def perl_pair():
    """Base-vs-GALS comparison row for the perl profile."""
    return run_pair("perl", num_instructions=TEST_INSTRUCTIONS, seed=1)


@pytest.fixture(scope="session")
def perl_base(perl_pair):
    return perl_pair.base_result


@pytest.fixture(scope="session")
def perl_gals(perl_pair):
    return perl_pair.gals_result


@pytest.fixture(scope="session")
def fpppp_pair():
    """Base-vs-GALS comparison for the branch-poor fpppp profile."""
    return run_pair("fpppp", num_instructions=TEST_INSTRUCTIONS, seed=1)


@pytest.fixture(scope="session")
def gcc_dvfs_result():
    """The gcc 'gals-1' DVFS case study (Figure 13), at test scale."""
    return selective_slowdown("gcc", GCC_GALS_1,
                              num_instructions=TEST_INSTRUCTIONS, seed=1)
