"""Per-block activity counters.

Microarchitecture components record every access to a power-modelled block
("icache", "rename", "alu_int", ...) through a single shared
:class:`ActivityCounters` object.  The power accountant drains the per-cycle
counts at each clock-domain edge and turns them into energy.

Storage is one mutable *cell* (a small list) per block: ``cell[0]`` is the
pending count for the current cycle of the block's clock domain, ``cell[1]``
the cumulative drained total.  Producers on the pipeline hot path hold a
direct reference to their block's cell (:meth:`ActivityCounters.cell`) and
increment ``cell[0]`` inline, and the power accountant's per-edge probe reads
the same cells without any dictionary lookup.  The accountant may extend a
cell with additional bookkeeping slots; only the first two are owned here.
"""

from __future__ import annotations

from typing import Dict, List


#: Cell layout: indices owned by the activity counters.
CELL_PENDING = 0
CELL_TOTAL = 1


class ActivityCounters:
    """Shared access counters, split into per-cycle (pending) and cumulative.

    Producers add to a cell's pending slot; the power accountant folds it
    into the cumulative slot when it drains the cell at the block's edge.
    """

    def __init__(self) -> None:
        self._cells: Dict[str, List] = {}

    def cell(self, block: str) -> List:
        """The mutable counter cell for ``block`` (created on first use).

        Hot-path producers cache the returned list and do ``cell[0] += n``
        directly; the cell identity is stable for the lifetime of the
        counters object.
        """
        found = self._cells.get(block)
        if found is None:
            found = self._cells[block] = [0, 0]
        return found
