"""Cache replacement policies.

The paper's processor (Table 3) uses conventional set-associative caches; the
replacement policy is not specified, so LRU is the default (SimpleScalar's
default).  FIFO and random policies are provided for ablation studies.
"""

from __future__ import annotations

import random
from typing import List


class ReplacementPolicy:
    """Chooses a victim way within one cache set."""

    name = "base"

    def __init__(self, associativity: int) -> None:
        if associativity <= 0:
            raise ValueError("associativity must be positive")
        self.associativity = associativity

    def on_access(self, way: int) -> None:  # pragma: no cover - overridden
        """Called on every hit or fill of ``way``."""

    def on_fill(self, way: int) -> None:
        """Called when ``way`` receives a new line; defaults to on_access."""
        self.on_access(way)

    def victim(self, valid: List[bool]) -> int:  # pragma: no cover - overridden
        """Return the way to evict given the per-way valid bits."""
        raise NotImplementedError


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used replacement."""

    name = "lru"

    def __init__(self, associativity: int) -> None:
        super().__init__(associativity)
        # recency[i] is the way id; index 0 = most recently used.
        self._recency: List[int] = list(range(associativity))

    def on_access(self, way: int) -> None:
        """Move the touched way to the most-recently-used position."""
        self._recency.remove(way)
        self._recency.insert(0, way)

    def victim(self, valid: List[bool]) -> int:
        """The least-recently-used way."""
        for way, is_valid in enumerate(valid):
            if not is_valid:
                return way
        return self._recency[-1]


class FIFOPolicy(ReplacementPolicy):
    """First-in-first-out replacement (round-robin fill order)."""

    name = "fifo"

    def __init__(self, associativity: int) -> None:
        super().__init__(associativity)
        self._next = 0

    def on_access(self, way: int) -> None:
        """No-op: FIFO ignores access recency."""
        pass  # hits do not change FIFO order

    def on_fill(self, way: int) -> None:
        """Record the filled way at the back of the eviction queue."""
        self._next = (way + 1) % self.associativity

    def victim(self, valid: List[bool]) -> int:
        """The oldest-filled way."""
        for way, is_valid in enumerate(valid):
            if not is_valid:
                return way
        return self._next


class RandomPolicy(ReplacementPolicy):
    """Random replacement with a deterministic per-set RNG."""

    name = "random"

    def __init__(self, associativity: int, seed: int = 0) -> None:
        super().__init__(associativity)
        self._rng = random.Random(seed)

    def on_access(self, way: int) -> None:
        """No-op: random replacement keeps no access state."""
        pass

    def victim(self, valid: List[bool]) -> int:
        """A uniformly random way from the set's private RNG."""
        for way, is_valid in enumerate(valid):
            if not is_valid:
                return way
        return self._rng.randrange(self.associativity)


#: Replacement policies by ``MemoryHierarchyConfig.replacement`` (matched
#: in any case).
REPLACEMENT_POLICIES = {
    "lru": LRUPolicy,
    "fifo": FIFOPolicy,
    "random": RandomPolicy,
}


def make_policy(name: str, associativity: int, seed: int = 0) -> ReplacementPolicy:
    """Factory for replacement policies by name ('lru', 'fifo', 'random')."""
    try:
        cls = REPLACEMENT_POLICIES[name.lower()]
    except KeyError as exc:
        raise ValueError(f"unknown replacement policy {name!r}") from exc
    if cls is RandomPolicy:
        return cls(associativity, seed=seed)
    return cls(associativity)
