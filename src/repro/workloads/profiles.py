"""Benchmark behaviour profiles (Spec95 / Mediabench substitutes).

The paper evaluates its processors on Spec95 and Mediabench programs run under
SimpleScalar.  Those binaries and traces are not redistributable, so this
reproduction describes each benchmark by the behavioural parameters the
paper's conclusions actually depend on -- branch density and predictability,
floating-point and memory intensity, dependence locality and working-set size
-- and generates synthetic instruction streams from those parameters
(:mod:`repro.workloads.synthetic`).

The parameters encode the specific facts the paper calls out:

* *fpppp* executes roughly one branch per 67 instructions, while most other
  applications have one branch every five to six instructions (Section 5.1);
* *perl* has virtually no floating-point instructions (Section 5.2);
* *ijpeg* has a very low proportion of memory accesses (Section 5.2);
* *gcc* has low instruction bandwidth and essentially no FP (Section 5.2).

The remaining values are representative of the published characterisations of
these suites from the same era.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

SUITE_SPECINT = "specint95"
SUITE_SPECFP = "specfp95"
SUITE_MEDIABENCH = "mediabench"


@dataclass(frozen=True)
class BenchmarkProfile:
    """Statistical description of one benchmark's dynamic behaviour."""

    name: str
    suite: str
    description: str
    #: fraction of dynamic instructions that are conditional branches
    branch_fraction: float
    #: fraction of dynamic instructions that are unconditional jumps/calls
    jump_fraction: float
    #: fraction of static branches that are strongly biased (easy to predict)
    strongly_biased_fraction: float
    #: taken probability of a strongly biased branch
    strong_bias: float
    #: taken probability of a weakly biased branch
    weak_bias: float
    #: fraction of dynamic instructions that are floating point
    fp_fraction: float
    #: of the FP instructions, fraction that are multiplies / divides
    fp_mul_share: float
    fp_div_share: float
    #: fraction of dynamic instructions that are loads / stores
    load_fraction: float
    store_fraction: float
    #: of the integer instructions, fraction that are multiplies
    int_mul_share: float
    #: mean register-dependence distance (instructions) between producer and consumer
    dependence_distance: float
    #: data working-set size in KB (drives D-cache/L2 behaviour)
    working_set_kb: int
    #: typical stride of array accesses in bytes
    access_stride: int
    #: number of static basic blocks (drives I-cache footprint; gcc is large)
    static_blocks: int
    #: average instructions per basic block override (0 = derive from branch_fraction)
    block_length_override: int = 0

    def __post_init__(self) -> None:
        fractions = (self.branch_fraction, self.jump_fraction, self.fp_fraction,
                     self.load_fraction, self.store_fraction)
        if any(f < 0 or f > 1 for f in fractions):
            raise ValueError(f"profile {self.name!r}: fractions must be in [0, 1]")
        total = (self.branch_fraction + self.jump_fraction + self.fp_fraction
                 + self.load_fraction + self.store_fraction)
        if total > 1.0 + 1e-9:
            raise ValueError(
                f"profile {self.name!r}: instruction-mix fractions sum to {total:.3f} > 1")
        if self.working_set_kb <= 0 or self.static_blocks <= 0:
            raise ValueError(f"profile {self.name!r}: sizes must be positive")

    @property
    def int_alu_fraction(self) -> float:
        """Fraction of dynamic instructions that are plain integer ALU ops."""
        return max(0.0, 1.0 - (self.branch_fraction + self.jump_fraction
                               + self.fp_fraction + self.load_fraction
                               + self.store_fraction))

    @property
    def is_integer_benchmark(self) -> bool:
        """True when the FP fraction is negligible (< 5 %)."""
        return self.fp_fraction < 0.05

    @property
    def branches_per_instruction(self) -> float:
        """Control-flow density: branch + jump fraction."""
        return self.branch_fraction + self.jump_fraction

    @property
    def mean_block_length(self) -> int:
        """Average number of instructions per basic block."""
        if self.block_length_override:
            return self.block_length_override
        density = self.branches_per_instruction
        if density <= 0:
            return 40
        return max(2, round(1.0 / density))


def _profile(**kwargs) -> BenchmarkProfile:
    return BenchmarkProfile(**kwargs)


#: The benchmark suite used throughout the reproduction.  Values are
#: representative published characterisations; see the module docstring.
PROFILES: Dict[str, BenchmarkProfile] = {p.name: p for p in [
    # ----------------------------------------------------------- SPECint95
    _profile(name="compress", suite=SUITE_SPECINT,
             description="LZW text compression (SPECint95)",
             branch_fraction=0.17, jump_fraction=0.02,
             strongly_biased_fraction=0.84, strong_bias=0.965, weak_bias=0.68,
             fp_fraction=0.0, fp_mul_share=0.0, fp_div_share=0.0,
             load_fraction=0.24, store_fraction=0.09, int_mul_share=0.01,
             dependence_distance=2.6, working_set_kb=300, access_stride=8,
             static_blocks=40),
    _profile(name="gcc", suite=SUITE_SPECINT,
             description="GNU C compiler (SPECint95); large code footprint, no FP",
             branch_fraction=0.17, jump_fraction=0.04,
             strongly_biased_fraction=0.8, strong_bias=0.955, weak_bias=0.66,
             fp_fraction=0.0, fp_mul_share=0.0, fp_div_share=0.0,
             load_fraction=0.25, store_fraction=0.11, int_mul_share=0.01,
             dependence_distance=2.8, working_set_kb=512, access_stride=16,
             static_blocks=400),
    _profile(name="go", suite=SUITE_SPECINT,
             description="Go-playing program (SPECint95); hard-to-predict branches",
             branch_fraction=0.15, jump_fraction=0.03,
             strongly_biased_fraction=0.68, strong_bias=0.94, weak_bias=0.62,
             fp_fraction=0.0, fp_mul_share=0.0, fp_div_share=0.0,
             load_fraction=0.26, store_fraction=0.08, int_mul_share=0.02,
             dependence_distance=3.0, working_set_kb=256, access_stride=16,
             static_blocks=220),
    _profile(name="ijpeg", suite=SUITE_SPECINT,
             description="JPEG compression (SPECint95); few memory accesses",
             branch_fraction=0.10, jump_fraction=0.02,
             strongly_biased_fraction=0.88, strong_bias=0.97, weak_bias=0.7,
             fp_fraction=0.0, fp_mul_share=0.0, fp_div_share=0.0,
             load_fraction=0.16, store_fraction=0.06, int_mul_share=0.06,
             dependence_distance=3.4, working_set_kb=160, access_stride=8,
             static_blocks=60),
    _profile(name="li", suite=SUITE_SPECINT,
             description="Lisp interpreter (SPECint95)",
             branch_fraction=0.19, jump_fraction=0.05,
             strongly_biased_fraction=0.84, strong_bias=0.96, weak_bias=0.68,
             fp_fraction=0.0, fp_mul_share=0.0, fp_div_share=0.0,
             load_fraction=0.28, store_fraction=0.13, int_mul_share=0.0,
             dependence_distance=2.4, working_set_kb=96, access_stride=8,
             static_blocks=120),
    _profile(name="perl", suite=SUITE_SPECINT,
             description="Perl interpreter (SPECint95); virtually no FP",
             branch_fraction=0.18, jump_fraction=0.04,
             strongly_biased_fraction=0.83, strong_bias=0.96, weak_bias=0.68,
             fp_fraction=0.0, fp_mul_share=0.0, fp_div_share=0.0,
             load_fraction=0.27, store_fraction=0.12, int_mul_share=0.01,
             dependence_distance=2.5, working_set_kb=200, access_stride=8,
             static_blocks=180),
    _profile(name="m88ksim", suite=SUITE_SPECINT,
             description="Motorola 88k simulator (SPECint95)",
             branch_fraction=0.16, jump_fraction=0.04,
             strongly_biased_fraction=0.86, strong_bias=0.965, weak_bias=0.7,
             fp_fraction=0.0, fp_mul_share=0.0, fp_div_share=0.0,
             load_fraction=0.22, store_fraction=0.09, int_mul_share=0.01,
             dependence_distance=2.7, working_set_kb=64, access_stride=8,
             static_blocks=150),
    _profile(name="vortex", suite=SUITE_SPECINT,
             description="Object-oriented database (SPECint95)",
             branch_fraction=0.16, jump_fraction=0.05,
             strongly_biased_fraction=0.88, strong_bias=0.97, weak_bias=0.7,
             fp_fraction=0.0, fp_mul_share=0.0, fp_div_share=0.0,
             load_fraction=0.29, store_fraction=0.15, int_mul_share=0.0,
             dependence_distance=2.9, working_set_kb=400, access_stride=32,
             static_blocks=320),
    # ------------------------------------------------------------ SPECfp95
    _profile(name="applu", suite=SUITE_SPECFP,
             description="Parabolic/elliptic PDE solver (SPECfp95)",
             branch_fraction=0.05, jump_fraction=0.01,
             strongly_biased_fraction=0.90, strong_bias=0.97, weak_bias=0.70,
             fp_fraction=0.38, fp_mul_share=0.40, fp_div_share=0.03,
             load_fraction=0.28, store_fraction=0.09, int_mul_share=0.01,
             dependence_distance=4.2, working_set_kb=800, access_stride=8,
             static_blocks=48),
    _profile(name="fpppp", suite=SUITE_SPECFP,
             description="Quantum chemistry (SPECfp95); ~1 branch per 67 instructions",
             branch_fraction=0.012, jump_fraction=0.003,
             strongly_biased_fraction=0.92, strong_bias=0.98, weak_bias=0.72,
             fp_fraction=0.48, fp_mul_share=0.45, fp_div_share=0.04,
             load_fraction=0.30, store_fraction=0.10, int_mul_share=0.0,
             dependence_distance=5.0, working_set_kb=120, access_stride=8,
             static_blocks=16),
    _profile(name="swim", suite=SUITE_SPECFP,
             description="Shallow-water model (SPECfp95); streaming FP",
             branch_fraction=0.04, jump_fraction=0.01,
             strongly_biased_fraction=0.93, strong_bias=0.98, weak_bias=0.72,
             fp_fraction=0.40, fp_mul_share=0.42, fp_div_share=0.01,
             load_fraction=0.30, store_fraction=0.12, int_mul_share=0.0,
             dependence_distance=4.5, working_set_kb=1600, access_stride=8,
             static_blocks=24),
    _profile(name="tomcatv", suite=SUITE_SPECFP,
             description="Mesh generation (SPECfp95)",
             branch_fraction=0.04, jump_fraction=0.01,
             strongly_biased_fraction=0.92, strong_bias=0.98, weak_bias=0.70,
             fp_fraction=0.42, fp_mul_share=0.40, fp_div_share=0.05,
             load_fraction=0.29, store_fraction=0.10, int_mul_share=0.0,
             dependence_distance=4.6, working_set_kb=1200, access_stride=8,
             static_blocks=20),
    # ---------------------------------------------------------- Mediabench
    _profile(name="adpcm", suite=SUITE_MEDIABENCH,
             description="ADPCM speech codec (Mediabench)",
             branch_fraction=0.15, jump_fraction=0.02,
             strongly_biased_fraction=0.78, strong_bias=0.95, weak_bias=0.66,
             fp_fraction=0.0, fp_mul_share=0.0, fp_div_share=0.0,
             load_fraction=0.12, store_fraction=0.05, int_mul_share=0.02,
             dependence_distance=2.2, working_set_kb=24, access_stride=4,
             static_blocks=20),
    _profile(name="epic", suite=SUITE_MEDIABENCH,
             description="Image compression with wavelets (Mediabench)",
             branch_fraction=0.10, jump_fraction=0.02,
             strongly_biased_fraction=0.86, strong_bias=0.965, weak_bias=0.68,
             fp_fraction=0.18, fp_mul_share=0.45, fp_div_share=0.02,
             load_fraction=0.24, store_fraction=0.08, int_mul_share=0.04,
             dependence_distance=3.2, working_set_kb=80, access_stride=8,
             static_blocks=40),
    _profile(name="gsm", suite=SUITE_MEDIABENCH,
             description="GSM 06.10 speech codec (Mediabench)",
             branch_fraction=0.11, jump_fraction=0.02,
             strongly_biased_fraction=0.85, strong_bias=0.96, weak_bias=0.68,
             fp_fraction=0.0, fp_mul_share=0.0, fp_div_share=0.0,
             load_fraction=0.20, store_fraction=0.07, int_mul_share=0.10,
             dependence_distance=2.8, working_set_kb=32, access_stride=4,
             static_blocks=36),
    _profile(name="jpeg", suite=SUITE_MEDIABENCH,
             description="JPEG codec (Mediabench)",
             branch_fraction=0.11, jump_fraction=0.02,
             strongly_biased_fraction=0.88, strong_bias=0.97, weak_bias=0.7,
             fp_fraction=0.02, fp_mul_share=0.5, fp_div_share=0.0,
             load_fraction=0.20, store_fraction=0.08, int_mul_share=0.08,
             dependence_distance=3.0, working_set_kb=90, access_stride=8,
             static_blocks=50),
    _profile(name="mpeg2", suite=SUITE_MEDIABENCH,
             description="MPEG-2 video decoder (Mediabench)",
             branch_fraction=0.12, jump_fraction=0.02,
             strongly_biased_fraction=0.86, strong_bias=0.965, weak_bias=0.68,
             fp_fraction=0.04, fp_mul_share=0.5, fp_div_share=0.02,
             load_fraction=0.26, store_fraction=0.09, int_mul_share=0.06,
             dependence_distance=3.1, working_set_kb=350, access_stride=16,
             static_blocks=80),
]}

#: Benchmarks used by the figure-reproduction harness (mirrors the ~12 bars of
#: Figures 5-9).
DEFAULT_BENCHMARKS: Tuple[str, ...] = (
    "compress", "gcc", "go", "ijpeg", "li", "perl",
    "applu", "fpppp", "swim",
    "adpcm", "epic", "mpeg2",
)

#: The three benchmarks the paper's DVFS case studies focus on (Section 5.2).
DVFS_CASE_STUDY_BENCHMARKS: Tuple[str, ...] = ("perl", "ijpeg", "gcc")

#: Default trace length for the reproduction harness.  The paper simulates
#: full SPEC runs; the synthetic workloads reach steady state quickly, so a
#: few thousand instructions per run keep the harness fast while preserving
#: the relative behaviour.
DEFAULT_INSTRUCTIONS = 3000


def get_profile(name: str) -> BenchmarkProfile:
    """Look up a benchmark profile by name."""
    try:
        return PROFILES[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown benchmark {name!r}; known: {', '.join(sorted(PROFILES))}"
        ) from exc


def profiles_in_suite(suite: str) -> List[BenchmarkProfile]:
    """All profiles belonging to one suite."""
    return [p for p in PROFILES.values() if p.suite == suite]


# --------------------------------------------------------------- phased mixes
#: Phase-schedule kinds understood by the phased trace generator
#: (:mod:`repro.workloads.phased`).
PHASE_STATIC = "static"
PHASE_OSCILLATING = "oscillating"
PHASE_HOTSET = "hotset"

PHASE_KINDS: Tuple[str, ...] = (PHASE_STATIC, PHASE_OSCILLATING, PHASE_HOTSET)


@dataclass(frozen=True)
class PhasedMix:
    """A characterized multi-phase workload mix (the workload-profile table).

    A mix names the regime structure of a phased workload: which base
    workloads (benchmark profiles or ``kernel:<name>`` kernels) supply each
    phase's instructions, and how the phases are scheduled over the run:

    * ``static`` -- each segment runs once, in order, splitting the
      instruction budget by ``weights`` (one long regime per segment);
    * ``oscillating`` -- the segments alternate every ``period``
      instructions until the budget is exhausted (regime *changes* at a
      fixed cadence -- where online DVFS controllers must react);
    * ``hotset`` -- a single base segment whose data working set is
      rescaled every ``period`` instructions through ``hot_scales`` (the
      hot set drifts while the instruction mix stays put).
    """

    name: str
    description: str
    kind: str
    #: base workload names: benchmark profiles or ``kernel:<name>`` kernels
    segments: Tuple[str, ...]
    #: instructions per phase (oscillating / hotset schedules)
    period: int = 500
    #: per-segment budget shares (static schedules; empty = uniform)
    weights: Tuple[float, ...] = ()
    #: working-set multipliers cycled per phase (hotset schedules)
    hot_scales: Tuple[float, ...] = (1.0, 4.0, 0.25)

    def __post_init__(self) -> None:
        if self.kind not in PHASE_KINDS:
            raise ValueError(f"mix {self.name!r}: unknown phase kind "
                             f"{self.kind!r}; known: {', '.join(PHASE_KINDS)}")
        if not self.segments:
            raise ValueError(f"mix {self.name!r}: needs at least one segment")
        if self.kind in (PHASE_OSCILLATING, PHASE_HOTSET) and self.period <= 0:
            raise ValueError(f"mix {self.name!r}: period must be positive")
        if self.weights and len(self.weights) != len(self.segments):
            raise ValueError(f"mix {self.name!r}: {len(self.weights)} weights "
                             f"for {len(self.segments)} segments")
        if any(w <= 0 for w in self.weights):
            raise ValueError(f"mix {self.name!r}: weights must be positive")
        if self.kind == PHASE_HOTSET and not self.hot_scales:
            raise ValueError(f"mix {self.name!r}: hotset mixes need "
                             "hot_scales")


#: The named workload-profile table of characterized multi-phase mixes.  Each
#: entry is registered as the first-class workload name ``phased:<mix>`` (see
#: :mod:`repro.workloads.registry`) and therefore flows through scenarios,
#: sweeps, the results store and ``repro serve`` like any stationary workload.
WORKLOAD_MIXES: Dict[str, PhasedMix] = {m.name: m for m in [
    PhasedMix(
        name="intfp-osc", kind=PHASE_OSCILLATING,
        segments=("gcc", "swim"), period=400,
        description="integer/FP regime oscillation: gcc (no FP) alternating "
                    "with swim (streaming FP) every 400 instructions"),
    PhasedMix(
        name="calm-storm", kind=PHASE_OSCILLATING,
        segments=("adpcm", "fpppp"), period=600,
        description="control-flow regime oscillation: branchy adpcm "
                    "alternating with nearly branch-free FP fpppp"),
    PhasedMix(
        name="membound-osc", kind=PHASE_OSCILLATING,
        segments=("li", "tomcatv"), period=500,
        description="memory-pressure oscillation: small-footprint li "
                    "alternating with cache-thrashing tomcatv"),
    PhasedMix(
        name="int-fp-mem", kind=PHASE_STATIC,
        segments=("gcc", "swim", "mpeg2"), weights=(1.0, 1.0, 1.0),
        description="three long regimes back to back: integer compile, "
                    "streaming FP, then media/memory"),
    PhasedMix(
        name="hotset-perl", kind=PHASE_HOTSET,
        segments=("perl",), period=500, hot_scales=(1.0, 4.0, 0.25),
        description="dynamic hot set: perl's working set rescaled every "
                    "500 instructions (1x -> 4x -> 0.25x)"),
    PhasedMix(
        name="kernel-warmup", kind=PHASE_STATIC,
        segments=("kernel:dot_product", "gcc"), weights=(1.0, 3.0),
        description="assembled dot-product kernel prologue followed by a "
                    "long gcc-profile regime"),
]}


def get_mix(name: str) -> PhasedMix:
    """Look up a phased workload mix by name."""
    try:
        return WORKLOAD_MIXES[name]
    except KeyError as exc:
        raise KeyError(f"unknown phased mix {name!r}; known: "
                       f"{', '.join(sorted(WORKLOAD_MIXES))}") from exc


def available_mixes() -> Tuple[str, ...]:
    """Registered phased-mix names, sorted."""
    return tuple(sorted(WORKLOAD_MIXES))
