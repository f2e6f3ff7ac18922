"""Out-of-order superscalar microarchitecture components (paper Tables 2-3).

The components here are clock-domain agnostic: the same fetch, decode/rename,
issue/execute and commit units are assembled into either the synchronous base
processor (one clock domain, plain pipeline queues) or the 5-domain GALS
processor (mixed-clock FIFOs between domains) by :mod:`repro.core`.
"""

from .branch_predictor import (BimodalPredictor, BranchTargetBuffer, BranchUnit,
                               GSharePredictor, make_direction_predictor)
from .commit import CommitUnit
from .decode import DecodeRenameUnit, cluster_for
from .execute import ExecutionUnit, FunctionalUnitPool
from .fetch import FetchUnit, RedirectMessage
from .instruction import DynamicInstruction
from .issue_queue import IssueQueue
from .regfile import PhysicalRegisterFile
from .rename import RegisterAliasTable, RenameCheckpoint, RenameError
from .rob import ReorderBuffer

__all__ = [
    "BimodalPredictor",
    "BranchTargetBuffer",
    "BranchUnit",
    "CommitUnit",
    "DecodeRenameUnit",
    "DynamicInstruction",
    "ExecutionUnit",
    "FetchUnit",
    "FunctionalUnitPool",
    "GSharePredictor",
    "IssueQueue",
    "PhysicalRegisterFile",
    "RedirectMessage",
    "RegisterAliasTable",
    "RenameCheckpoint",
    "RenameError",
    "ReorderBuffer",
    "cluster_for",
    "make_direction_predictor",
]
