"""Multiple-clock / multiple-voltage (DVFS) policies (paper Section 5.2).

The second experiment set slows down selected clock domains of the GALS
processor in an application-dependent way and lowers the corresponding supply
voltages according to Equation 1.  This module defines the slowdown
configurations the paper evaluates and projects them onto a topology's
clock domains; :meth:`~repro.core.scenario.Scenario.build_plan` turns them
into :class:`~repro.core.domains.ClockPlan` objects.

Interpretation of the paper's wording (documented here because the prose is
informal): "slowed down by X %" means the clock period is stretched by X %
(slowdown factor 1 + X/100); "slowed by a factor of N" means the period is
multiplied by N.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

from ..power.technology import DEFAULT_TECHNOLOGY, TechnologyParameters
from ..power.voltage import voltage_for_slowdown
from .domains import (DOMAIN_FETCH, DOMAIN_FP, DOMAIN_MEMORY, GALS_DOMAINS,
                      Topology)


@dataclass(frozen=True)
class SlowdownPolicy:
    """A named per-domain slowdown configuration."""

    name: str
    description: str
    slowdowns: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        unknown = set(self.slowdowns) - set(GALS_DOMAINS)
        if unknown:
            raise ValueError(f"policy {self.name!r}: unknown domains {sorted(unknown)}")
        if any(s < 1.0 for s in self.slowdowns.values()):
            raise ValueError(f"policy {self.name!r}: slowdowns must be >= 1.0")

    def project_onto(self, topology: Topology) -> Dict[str, float]:
        """Per-domain slowdowns implied by this per-block policy.

        Policies are expressed over the paper's five logical blocks.  On a
        coarser topology, a clock domain containing several blocks runs at
        the *largest* slowdown requested for any of its blocks: slowing a
        merged domain less than a member block requires would violate that
        block's timing assumption, while slowing the co-resident blocks more
        is exactly the cost of merging domains.
        """
        domain_slowdowns: Dict[str, float] = {}
        for block, slowdown in self.slowdowns.items():
            domain = topology.domain_of(block)
            if slowdown > domain_slowdowns.get(domain, 1.0):
                domain_slowdowns[domain] = slowdown
        return domain_slowdowns

    def voltages(self, technology: TechnologyParameters = DEFAULT_TECHNOLOGY
                 ) -> Dict[str, float]:
        """Ideal per-domain supply voltages implied by the slowdowns."""
        return {domain: voltage_for_slowdown(slowdown, technology)
                for domain, slowdown in self.slowdowns.items()}


#: Figure 11 -- the "generic" slowdown applied to three benchmarks:
#: fetch and memory clocks 10 % slower, FP clock 50 % slower.
GENERIC_SLOWDOWN = SlowdownPolicy(
    name="generic",
    description="fetch -10%, memory -10%, FP -50% (Figure 11)",
    slowdowns={DOMAIN_FETCH: 1.10, DOMAIN_MEMORY: 1.10, DOMAIN_FP: 1.50},
)

#: Section 5.2, perl: the FP clock slowed by a factor of 3 (perl has
#: essentially no FP instructions).
PERL_FP_BY_3 = SlowdownPolicy(
    name="perl-fp3",
    description="FP clock slowed by a factor of 3 (perl case study)",
    slowdowns={DOMAIN_FP: 3.0},
)

#: Figure 12 -- ijpeg: fetch -10 %, FP -20 %, memory swept over
#: {0 %, 10 %, 20 %, 50 %} (gals-00 / gals-10 / gals-20 / gals-50).
IJPEG_SWEEP: Tuple[SlowdownPolicy, ...] = tuple(
    SlowdownPolicy(
        name=f"gals-{label}",
        description=f"fetch -10%, FP -20%, memory -{label}% (Figure 12)",
        slowdowns={DOMAIN_FETCH: 1.10, DOMAIN_FP: 1.20,
                   **({DOMAIN_MEMORY: factor} if factor > 1.0 else {})},
    )
    for label, factor in (("00", 1.0), ("10", 1.10), ("20", 1.20), ("50", 1.50))
)

#: Figure 13 -- gcc: fetch -10 %; FP clock -50 % (gals-1) or /3 (gals-2).
GCC_GALS_1 = SlowdownPolicy(
    name="gals-1",
    description="fetch -10%, FP -50% (Figure 13)",
    slowdowns={DOMAIN_FETCH: 1.10, DOMAIN_FP: 1.50},
)
GCC_GALS_2 = SlowdownPolicy(
    name="gals-2",
    description="fetch -10%, FP clock slowed by a factor of 3 (Figure 13)",
    slowdowns={DOMAIN_FETCH: 1.10, DOMAIN_FP: 3.0},
)

#: All named policies, for lookup by the benchmark harness and scenarios.
POLICIES: Dict[str, SlowdownPolicy] = {
    policy.name: policy
    for policy in (GENERIC_SLOWDOWN, PERL_FP_BY_3, *IJPEG_SWEEP,
                   GCC_GALS_1, GCC_GALS_2)
}


def register_policy(policy: SlowdownPolicy) -> SlowdownPolicy:
    """Add a named slowdown policy to the registry."""
    if policy.name in POLICIES:
        raise ValueError(f"DVFS policy {policy.name!r} already registered")
    POLICIES[policy.name] = policy
    return policy


def available_policies() -> Tuple[str, ...]:
    """Registered policy names, in registration order."""
    return tuple(POLICIES)


def get_policy(name: str) -> SlowdownPolicy:
    """Look up a named slowdown policy."""
    try:
        return POLICIES[name]
    except KeyError as exc:
        raise KeyError(f"unknown DVFS policy {name!r}; known: "
                       f"{', '.join(sorted(POLICIES))}") from exc


def recommend_policy(profile, aggressiveness: float = 1.0) -> SlowdownPolicy:
    """Derive an application-driven slowdown policy from a benchmark profile.

    This implements the paper's observation that clock slowdown must be
    applied "on a selective basis, after studying the application's
    characteristics": domains whose resources the application barely uses are
    slowed down aggressively, lightly used ones moderately, and heavily used
    ones are left at full speed.

    ``aggressiveness`` scales how far the slowdowns go (1.0 reproduces the
    paper-style choices; smaller values are more conservative).
    """
    slowdowns: Dict[str, float] = {}
    fp_usage = profile.fp_fraction
    mem_usage = profile.load_fraction + profile.store_fraction
    fetch_pressure = profile.branches_per_instruction
    if fp_usage < 0.01:
        slowdowns[DOMAIN_FP] = 1.0 + 2.0 * aggressiveness
    elif fp_usage < 0.10:
        slowdowns[DOMAIN_FP] = 1.0 + 0.5 * aggressiveness
    if mem_usage < 0.25:
        slowdowns[DOMAIN_MEMORY] = 1.0 + 0.10 * aggressiveness
    if fetch_pressure < 0.15:
        slowdowns[DOMAIN_FETCH] = 1.0 + 0.10 * aggressiveness
    return SlowdownPolicy(
        name=f"auto-{profile.name}",
        description=f"application-driven slowdown derived from the "
                    f"{profile.name} profile",
        slowdowns=slowdowns,
    )
