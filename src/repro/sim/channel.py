"""Communication channels between pipeline stages.

Two kinds of channel exist in the processor models:

* :class:`SyncQueue` -- an ordinary pipeline latch / buffer between stages in
  the *same* clock domain.  Items written on one edge are visible on the next
  edge (the stage evaluation order takes care of that); there is no
  synchronization penalty.  This is what the synchronous base processor uses
  everywhere (Figure 3a).

* ``MixedClockFifo`` (in :mod:`repro.async_comm.fifo`) -- the Chelcea/Nowick
  style asynchronous FIFO used between clock domains of the GALS processor
  (Figure 3b).  It adds synchronization latency on both the data/empty path
  and the full path.

Both offer the operations the pipeline stages call: ``free_slots`` plus
``push_granted`` (a producer's whole group), ``can_push`` plus ``push``,
``pop_ready`` and ``pop_bulk`` (consumers) and ``flush`` (recovery).  The
processor assembly code is therefore identical for the two machines; only
the channel factory differs.  :class:`Channel` holds the bookkeeping both
share: capacity, statistics and the power transfer counter.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple


class Channel:
    """Capacity and statistics shared by the inter-stage channels."""

    #: Whether residency in this channel counts as "FIFO time" in the slip
    #: breakdown of Figure 7 (True only for mixed-clock FIFOs).
    counts_as_fifo: bool = False

    def __init__(self, name: str, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"channel {name!r}: capacity must be positive")
        self.name = name
        self.capacity = capacity
        #: optional shared one-element transfer counter ([pushes + pops]),
        #: incremented inline by channels that support it so per-cycle power
        #: probes read one cell instead of re-summing every channel
        self._transfer_box: Optional[list] = None
        # statistics
        self.push_count = 0
        self.pop_count = 0
        self.flush_count = 0
        self.total_wait = 0.0
        self.last_pop_wait = 0.0
        self.occupancy_samples = 0
        self.occupancy_accum = 0
        self.full_stall_count = 0

    def record_full_stall(self) -> None:
        """Note that a producer wanted to push but the channel appeared full."""
        self.full_stall_count += 1

    def attach_transfer_counter(self, box: list) -> None:
        """Share a one-element list that push/pop increment (power probes)."""
        self._transfer_box = box


class SyncQueue(Channel):
    """A buffer between stages that share a clock (plain pipeline queue).

    Items are visible to the consumer as soon as they are pushed; because the
    processor ticks stages in reverse pipeline order, an item pushed on edge
    *n* is consumed at the earliest on edge *n+1*, modelling a conventional
    pipeline register with no extra latency.
    """

    counts_as_fifo = False

    def __init__(self, name: str, capacity: int) -> None:
        super().__init__(name, capacity)
        self._entries: Deque[Tuple[Any, float]] = deque()

    def can_push(self, time: float) -> bool:
        """True while the queue has free capacity."""
        return len(self._entries) < self.capacity

    def free_slots(self, time: float) -> int:
        """Free capacity (same-domain queues have no hidden slots)."""
        return self.capacity - len(self._entries)

    def push(self, item: Any, time: float) -> None:
        """Append one item (raises when full)."""
        entries = self._entries
        if len(entries) >= self.capacity:
            raise OverflowError(f"push into full channel {self.name!r}")
        entries.append((item, time))
        self.push_count += 1

    def push_granted(self, item: Any, time: float) -> None:
        """Append one item (capacity already granted by ``can_push``)."""
        self._entries.append((item, time))
        self.push_count += 1

    def pop_ready(self, time: float) -> Any:
        """Remove and return the oldest item, or None when empty."""
        entries = self._entries
        if not entries:
            return None
        item, pushed_at = entries.popleft()
        wait = time - pushed_at
        if wait < 0.0:
            wait = 0.0
        self.last_pop_wait = wait
        self.total_wait += wait
        self.pop_count += 1
        return item

    def pop_bulk(self, time: float, limit: int) -> List[Tuple[Any, float]]:
        """Drain up to ``limit`` items with batched statistics bookkeeping."""
        entries = self._entries
        if not entries:
            return []
        if limit > len(entries):
            limit = len(entries)
        popped: List[Tuple[Any, float]] = []
        append = popped.append
        popleft = entries.popleft
        wait = self.last_pop_wait
        for _ in range(limit):
            item, pushed_at = popleft()
            wait = time - pushed_at
            if wait < 0.0:
                wait = 0.0
            # accumulate per item (same float-summation order as pop_ready)
            self.total_wait += wait
            append((item, wait))
        self.last_pop_wait = wait
        self.pop_count += limit
        return popped

    def flush(self, predicate: Optional[Callable[[Any], bool]] = None) -> int:
        """Drop entries matching ``predicate`` (all entries when it is None)."""
        if predicate is None:
            dropped = len(self._entries)
            self._entries.clear()
        else:
            kept = [(i, t) for (i, t) in self._entries if not predicate(i)]
            dropped = len(self._entries) - len(kept)
            self._entries = deque(kept)
        self.flush_count += dropped
        return dropped
