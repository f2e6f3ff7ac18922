"""In-flight (dynamic) instruction state.

A :class:`DynamicInstruction` wraps one fetched instruction -- correct-path
(from the workload trace) or wrong-path (synthesised after a misprediction) --
and carries all the per-instruction state the pipeline needs: renamed
registers, the ROB slot, timestamps of every pipeline event, and the
accumulated time spent inside inter-domain FIFOs (the quantity Figure 7
reports).
"""

from __future__ import annotations

import itertools
from typing import Optional, Tuple

from ..isa.instructions import InstructionClass
from ..isa.trace import TraceInstruction

_SEQ = itertools.count()


class DynamicInstruction:
    """One instruction in flight through the pipeline."""

    __slots__ = (
        "trace", "seq", "epoch", "wrong_path",
        "opclass", "pc", "is_branch", "is_control", "is_load", "is_store",
        "phys_dest", "phys_sources", "prev_phys_dest", "rename_checkpoint",
        "rob_index", "exec_domain",
        "predicted_taken", "mispredicted",
        "fetch_time", "decode_time", "pipe_ready", "rename_time",
        "dispatch_time", "issue_time", "complete_time", "commit_time",
        "fifo_time", "fu_done",
        "squashed", "completed", "issued",
        "wakeup_after", "pending_ops", "wakeup_queue",
    )

    def __init__(self, trace: TraceInstruction, epoch: int,
                 wrong_path: bool = False,
                 seq: Optional[int] = None) -> None:
        self.trace = trace
        self.seq = seq if seq is not None else next(_SEQ)
        self.epoch = epoch
        self.wrong_path = wrong_path

        # Flattened trace facts: these are read on nearly every pipeline
        # stage of every cycle, so resolve the property chains (trace
        # property -> enum property) exactly once per dynamic instruction.
        opclass = trace.opclass
        self.opclass = opclass
        self.pc = trace.pc
        self.is_branch = trace.is_branch
        self.is_control = (opclass is InstructionClass.BRANCH
                           or opclass is InstructionClass.JUMP)
        self.is_load = opclass is InstructionClass.LOAD
        self.is_store = opclass is InstructionClass.STORE

        self.phys_dest: Optional[int] = None
        self.phys_sources: Tuple[int, ...] = ()
        self.prev_phys_dest: Optional[int] = None
        self.rename_checkpoint = None
        self.rob_index: Optional[int] = None
        self.exec_domain: str = ""

        self.predicted_taken: Optional[bool] = None
        self.mispredicted: bool = False

        # Only the timestamps read before the pipeline necessarily wrote them
        # are initialised here; decode/rename/dispatch/issue times and the
        # functional-unit completion time (``fu_done``) are assigned by their
        # stages before anything reads them.
        self.fetch_time: float = -1.0
        self.complete_time: float = -1.0
        self.commit_time: float = -1.0

        #: accumulated residency (ns) in mixed-clock FIFOs
        self.fifo_time: float = 0.0

        self.squashed: bool = False
        self.completed: bool = False
        self.issued: bool = False

        #: wakeup cache (issue queue): earliest time the operands can all be
        #: visible, or -1.0 until priced after the last producer's writeback
        self.wakeup_after: float = -1.0
        #: number of source operands whose producers have not completed yet
        #: (maintained by the waiter lists)
        self.pending_ops: int = 0
        #: the IssueQueue holding this entry, so a producer's writeback can
        #: move it onto that queue's ready list
        self.wakeup_queue = None

    # --------------------------------------------------------------- queries
    @property
    def dest(self) -> Optional[int]:
        """Architectural destination register, or None."""
        return self.trace.dest

    @property
    def sources(self) -> Tuple[int, ...]:
        """Architectural source registers (possibly empty)."""
        return self.trace.sources

    @property
    def is_fp(self) -> bool:
        """True for floating-point instructions."""
        return self.opclass.is_fp

    @property
    def slip(self) -> float:
        """Fetch-to-commit latency in ns (the paper's 'slip', Figure 6)."""
        if self.commit_time < 0 or self.fetch_time < 0:
            return 0.0
        return self.commit_time - self.fetch_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = []
        if self.wrong_path:
            flags.append("wrong-path")
        if self.squashed:
            flags.append("squashed")
        if self.completed:
            flags.append("done")
        flag_text = f" [{', '.join(flags)}]" if flags else ""
        return (f"DynInstr(seq={self.seq}, pc={self.pc:#x}, "
                f"{self.opclass.value}{flag_text})")
