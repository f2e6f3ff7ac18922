"""Out-of-order issue queues (instruction windows).

The processor has three issue queues (Table 3): integer (20 entries), floating
point (16) and memory (16).  Each queue holds renamed instructions until their
source operands are ready *and visible in the queue's clock domain*, then
issues the oldest ready instructions to the functional units, up to the issue
width and functional-unit availability.

Queue occupancy is one of the statistics the paper highlights (occupancies go
up in the GALS machine because instructions wait longer for cross-domain
operands); the execution cluster's edge samples it into
``occupancy_samples`` / ``occupancy_accum`` every cluster cycle.
"""

from __future__ import annotations

from typing import Callable, Iterable, List

from .instruction import DynamicInstruction

#: forwarding_latency(producer_domain, consumer_domain) -> extra ns
ForwardingLatency = Callable[[str, str], float]


class IssueQueue:
    """One instruction window feeding one set of functional units.

    Wakeup is event-driven: each physical register keeps a waiter list of
    the entries blocked on its value, and writebacks move fully produced
    entries onto an age-ordered per-queue ready list, so the per-cycle
    wakeup pass touches only awake entries.  The selections are those of a
    CAM search over the whole window (``test_golden_regression.PINS`` holds
    the results that search produced).  The queue is state plus
    bookkeeping: :class:`~repro.uarch.execute.ExecutionUnit` dispatches into
    it (``_drain_input``), wakes entries on writeback
    (``_complete_finished``) and selects and issues from it
    (``_issue_ready``).
    """

    def __init__(self, name: str, capacity: int,
                 domain_name: str = "") -> None:
        if capacity <= 0:
            raise ValueError("issue queue capacity must be positive")
        self.name = name
        self.capacity = capacity
        self.domain_name = domain_name
        self._entries: List[DynamicInstruction] = []
        #: entries whose source operands have all been *produced* (writeback
        #: happened; cross-domain visibility may still be in the future),
        #: kept in age (seq) order.  Always a subset of ``_entries``.
        self._ready: List[DynamicInstruction] = []
        # Issue gate: after a complete pass over the ready list that issued
        # everything visible, no remaining entry becomes visible before
        # ``ready_gate``.  Only a new push can add an earlier candidate (it
        # resets the gate); entries leaving the list can never lower the
        # minimum, so squash and issue keep the gate valid.
        self.ready_gate = -1.0
        # producer-domain -> forwarding latency into this queue's domain.
        # Clock periods are immutable once domains are bound (see
        # Processor._forwarding_cache), so the callback result is cached to
        # skip the call on the wakeup hot path.
        self._fwd_cache: dict = {}
        # statistics
        self.dispatches = 0
        self.issues = 0
        self.wakeup_searches = 0
        self.occupancy_accum = 0
        self.occupancy_samples = 0

    # ----------------------------------------------------------------- state
    @property
    def occupancy(self) -> int:
        """Number of instructions waiting in the window."""
        return len(self._entries)

    @property
    def is_full(self) -> bool:
        """True when the window has no free entry."""
        return len(self._entries) >= self.capacity

    @property
    def mean_occupancy(self) -> float:
        """Average occupancy over the sampled cycles."""
        if self.occupancy_samples == 0:
            return 0.0
        return self.occupancy_accum / self.occupancy_samples

    def __iter__(self) -> Iterable[DynamicInstruction]:
        return iter(self._entries)

    # ------------------------------------------------------------ operations
    def push_ready(self, instr: DynamicInstruction) -> None:
        """Insert a fully produced entry into the age-ordered ready list.

        Entries arrive in writeback order, not age order, so the insert
        walks from the tail to the entry's seq slot (the list is short and
        mostly-ordered, so the walk is usually zero or one step).  Age order
        is the bit-identity rule: the issue pass must attempt ready entries
        oldest first, exactly as a whole-window search does.
        """
        ready = self._ready
        seq = instr.seq
        if ready and seq < ready[-1].seq:
            index = len(ready) - 1
            while index > 0 and ready[index - 1].seq > seq:
                index -= 1
            ready.insert(index, instr)
        else:
            ready.append(instr)
        instr.wakeup_after = -1.0
        self.ready_gate = -1.0

    def squash_younger_than(self, branch_seq: int) -> List[DynamicInstruction]:
        """Drop wrong-path instructions after a misprediction.

        The squashed entries also leave the ready list; waiter-list links
        are unlinked lazily (the producer's writeback skips squashed
        entries), which the recovery tests pin.
        """
        squashed = [i for i in self._entries if i.seq > branch_seq]
        if squashed:
            self._entries = [i for i in self._entries if i.seq <= branch_seq]
            if self._ready:
                self._ready = [i for i in self._ready
                               if i.seq <= branch_seq]
            for instr in squashed:
                instr.squashed = True
        return squashed
