"""Processor configuration (paper Tables 2 and 3).

:class:`ProcessorConfig` gathers every microarchitectural parameter of the
modelled machine.  The defaults are exactly the paper's Table 3 plus the
conventional values (widths, ROB size, queue depths) SimpleScalar-era
configurations used where the paper does not spell them out.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

from ..memory.hierarchy import MemoryHierarchyConfig
from ..power.technology import DEFAULT_TECHNOLOGY, TechnologyParameters


@dataclass(frozen=True)
class ProcessorConfig:
    """Microarchitecture parameters shared by the base and GALS processors."""

    # -- machine width (Table 3: fetch and decode rate 4 inst/cycle)
    fetch_width: int = 4
    decode_width: int = 4
    dispatch_width: int = 4
    commit_width: int = 4
    issue_width_int: int = 4
    issue_width_fp: int = 4
    issue_width_mem: int = 2

    # -- issue queues (Table 3)
    int_issue_entries: int = 20
    fp_issue_entries: int = 16
    mem_issue_entries: int = 16

    # -- physical registers (Table 3)
    int_registers: int = 72
    fp_registers: int = 72

    # -- reorder buffer and front-end queues (conventional values)
    rob_entries: int = 64
    fetch_queue_entries: int = 8
    dispatch_queue_entries: int = 8
    decode_stages: int = 2

    # -- functional units (Table 3: 4 integer, 4 FP ALUs)
    num_int_alus: int = 4
    num_fp_alus: int = 4
    num_mem_ports: int = 2

    # -- simulation options
    #: pre-touch the trace's code and data lines so short traces measure
    #: steady-state (warm-cache) behaviour, as the paper's full SPEC runs do
    warm_caches: bool = True
    #: issue-queue wakeup implementation: "event" keeps per-physical-register
    #: waiter lists feeding an age-ordered per-queue ready list (the default,
    #: no per-cycle window scan); "scan" is the legacy poll-based CAM scan,
    #: kept selectable for the differential wakeup-equivalence tests.  Both
    #: produce bit-identical simulation results.
    wakeup_scheme: str = "event"

    # -- branch prediction
    predictor_kind: str = "bimodal"
    predictor_entries: int = 4096
    predictor_history_bits: int = 10
    btb_entries: int = 512
    btb_associativity: int = 4

    # -- inter-domain FIFOs (GALS machine only; Section 3.2)
    fifo_capacity: int = 24
    #: extra consumer-clock cycles (beyond the next consumer edge) before data
    #: pushed into a mixed-clock FIFO is observable on the other side.  The
    #: default of 1 models one synchronization stage after the capturing
    #: consumer edge (a 1.5-2.0 cycle total penalty); set it to 0 for the
    #: latency-optimised Chelcea/Nowick interface, where data becomes visible
    #: at the first consumer edge after the push, or raise it to model a
    #: conservative multi-flop synchronizer.
    fifo_sync_cycles: int = 1
    #: synchronizer depth for the branch-redirect signal into the fetch
    #: domain; control signals crossing domains use a full synchronizer, so
    #: the redirect (and therefore misprediction recovery) is slower in the
    #: GALS machine -- the "longer recovery pipeline" of Section 5.1.
    redirect_sync_cycles: int = 1
    #: average extra consumer-domain cycles before a result produced in
    #: another domain is usable (cross-domain operand forwarding, completion
    #: reports); models the steady-state forward latency of the mixed-clock
    #: FIFOs carrying results between clusters
    forwarding_sync_cycles: float = 1.0

    # -- memory hierarchy (Table 3)
    memory: MemoryHierarchyConfig = field(default_factory=MemoryHierarchyConfig)

    # -- process / operating point
    technology: TechnologyParameters = DEFAULT_TECHNOLOGY

    def __post_init__(self) -> None:
        positive_fields = (
            "fetch_width", "decode_width", "dispatch_width", "commit_width",
            "issue_width_int", "issue_width_fp", "issue_width_mem",
            "int_issue_entries", "fp_issue_entries", "mem_issue_entries",
            "int_registers", "fp_registers", "rob_entries",
            "fetch_queue_entries", "dispatch_queue_entries", "decode_stages",
            "num_int_alus", "num_fp_alus", "num_mem_ports",
            "predictor_entries", "btb_entries", "fifo_capacity",
        )
        for name in positive_fields:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.fifo_sync_cycles < 0:
            raise ValueError("fifo_sync_cycles must be non-negative")
        if self.int_registers < 32 or self.fp_registers < 32:
            raise ValueError("physical registers must cover the 32+32 architectural state")
        if self.wakeup_scheme not in ("event", "scan"):
            raise ValueError(f"unknown wakeup_scheme {self.wakeup_scheme!r}; "
                             "known: ('event', 'scan')")
        self.memory.validate()

    # ------------------------------------------------------------- utilities
    def with_changes(self, **changes) -> "ProcessorConfig":
        """Copy with selected fields replaced (for sweeps and ablations)."""
        return replace(self, **changes)

    @property
    def machine_width(self) -> int:
        """Front-end width used by the power models' port counts."""
        return self.fetch_width

    def describe(self) -> str:
        """Human-readable summary mirroring Table 3."""
        m = self.memory
        lines = [
            f"Fetch and decode rate       {self.fetch_width} inst/cycle",
            f"Integer issue queue size    {self.int_issue_entries}",
            f"FP issue queue size         {self.fp_issue_entries}",
            f"Memory issue queue size     {self.mem_issue_entries}",
            f"Integer registers           {self.int_registers}",
            f"FP registers                {self.fp_registers}",
            f"L1 data cache               {m.dl1_size // 1024}KB {m.dl1_assoc}-way, "
            f"{m.dl1_latency} cycle latency",
            f"L1 instruction cache        {m.il1_size // 1024}KB "
            f"{'direct-mapped' if m.il1_assoc == 1 else f'{m.il1_assoc}-way'}, "
            f"{m.il1_latency} cycle latency",
            f"L2 unified cache            {m.l2_size // 1024}KB {m.l2_assoc}-way, "
            f"{m.l2_latency} cycles latency",
            f"ALUs                        {self.num_int_alus} integer, "
            f"{self.num_fp_alus} FP",
        ]
        return "\n".join(lines)


#: The configuration used for every experiment in the paper's evaluation.
DEFAULT_CONFIG = ProcessorConfig()
