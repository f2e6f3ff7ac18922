"""Out-of-order issue queues (instruction windows).

The processor has three issue queues (Table 3): integer (20 entries), floating
point (16) and memory (16).  Each queue holds renamed instructions until their
source operands are ready *and visible in the queue's clock domain*, then
issues the oldest ready instructions to the functional units, up to the issue
width and functional-unit availability.

Queue occupancy is one of the statistics the paper highlights (occupancies go
up in the GALS machine because instructions wait longer for cross-domain
operands); :meth:`IssueQueue.sample_occupancy` feeds those numbers.
"""

from __future__ import annotations

from typing import Callable, Iterable, List

from .instruction import DynamicInstruction
from .regfile import PhysicalRegisterFile

#: forwarding_latency(producer_domain, consumer_domain) -> extra ns
ForwardingLatency = Callable[[str, str], float]

_INF = float("inf")


class IssueQueue:
    """One instruction window feeding one set of functional units.

    Wakeup is event-driven: each physical register keeps a waiter list of
    the entries blocked on its value, and writebacks move fully produced
    entries onto an age-ordered per-queue ready list, so the per-cycle
    wakeup pass touches only awake entries.  The selections are those of a
    CAM search over the whole window (``test_golden_regression.PINS`` holds
    the results that search produced).
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
        # minimum, so squash/remove keep the gate valid.
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
        self.full_stalls = 0

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

    def sample_occupancy(self) -> None:
        """Record the current occupancy (one sample per cluster cycle)."""
        self.occupancy_samples += 1
        self.occupancy_accum += len(self._entries)

    def __iter__(self) -> Iterable[DynamicInstruction]:
        return iter(self._entries)

    # ------------------------------------------------------------ operations
    def dispatch(self, instr: DynamicInstruction,
                 regfile: PhysicalRegisterFile) -> None:
        """Insert a renamed instruction into the window.

        The entry is linked onto the waiter list of every not-yet-produced
        source operand (or straight onto the ready list when none is
        pending).
        """
        entries = self._entries
        if len(entries) >= self.capacity:
            self.full_stalls += 1
            raise OverflowError(f"issue queue {self.name!r} is full")
        entries.append(instr)
        self.dispatches += 1
        self.link_waiters(instr, regfile)

    def link_waiters(self, instr: DynamicInstruction,
                     regfile: PhysicalRegisterFile) -> None:
        """Register the entry on the waiter list of each pending operand.

        A source operand is *pending* while its producer has not written
        back (``ready_time`` is +inf); produced-but-not-yet-visible operands
        (cross-domain forwarding still in flight) do not count -- the ready
        list tracks production, the issue pass prices visibility.  Entries
        with no pending operand join the ready list immediately.
        """
        pending = 0
        registers = regfile._registers
        for phys in instr.phys_sources:
            reg = registers[phys]
            if reg.ready_time == _INF:
                reg.waiters.append(instr)
                pending += 1
        instr.pending_ops = pending
        instr.wakeup_queue = self
        if pending == 0:
            self.push_ready(instr)

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

    def ready_instructions(
        self,
        now: float,
        regfile: PhysicalRegisterFile,
        forwarding_latency: ForwardingLatency,
        limit: int,
    ) -> List[DynamicInstruction]:
        """Oldest-first list of instructions whose operands are all visible.

        Only the ready list (entries already woken by their producers'
        writebacks) is examined, counted as wakeup activity; up to ``limit``
        entries are returned in age order.  The pass prices cross-domain
        visibility lazily and caches it per entry in ``wakeup_after``; a
        retime leaves that cache stale, as the pinned results require.
        """
        if limit <= 0:
            return []
        if now < self.ready_gate:
            return []                     # nothing becomes visible before then
        ready: List[DynamicInstruction] = []
        searched = 0
        domain_name = self.domain_name
        registers = regfile._registers
        fwd_cache = self._fwd_cache
        pass_complete = True
        min_future = _INF
        for instr in self._ready:
            searched += 1
            wakeup_after = instr.wakeup_after
            if wakeup_after > now:
                if wakeup_after < min_future:
                    min_future = wakeup_after
                continue                  # visibility time known, still ahead
            if wakeup_after < 0.0:
                # first examination since the last producer wrote back:
                # price the cross-domain visibility of every operand
                visible_at = 0.0
                for phys in instr.phys_sources:
                    reg = registers[phys]
                    source_visible = reg.ready_time
                    producer_domain = reg.producer_domain
                    if producer_domain and producer_domain != domain_name:
                        extra = fwd_cache.get(producer_domain)
                        if extra is None:
                            extra = forwarding_latency(producer_domain,
                                                       domain_name)
                            fwd_cache[producer_domain] = extra
                        source_visible += extra
                    if source_visible > visible_at:
                        visible_at = source_visible
                instr.wakeup_after = visible_at
                if visible_at > now:
                    if visible_at < min_future:
                        min_future = visible_at
                    continue
            ready.append(instr)
            if len(ready) >= limit:
                pass_complete = False     # tail not examined this pass
                break
        self.wakeup_searches += searched
        # Returned entries are expected to issue (the caller removes them),
        # so on a complete pass nothing left can become visible before
        # ``min_future``.
        self.ready_gate = min_future if pass_complete else -1.0
        return ready

    def remove(self, instr: DynamicInstruction) -> None:
        """Remove an instruction that has been issued."""
        self._entries.remove(instr)
        ready = self._ready
        if ready:
            try:
                ready.remove(instr)
            except ValueError:
                pass
        self.issues += 1

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
