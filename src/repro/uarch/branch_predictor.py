"""Branch direction predictors and branch target buffer.

The paper's simulator inherits SimpleScalar's front end; the default
configuration of that era is a bimodal (2-bit counter) or gshare predictor
with a set-associative BTB.  Both direction predictors are provided; the
processor configuration selects one (gshare by default).  Prediction accuracy
is an emergent property of the workload's static branch biases, which is what
drives the 13.8 % / 16.7 % mis-speculation numbers of Figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple


def _saturate_up(counter: int, maximum: int = 3) -> int:
    return min(maximum, counter + 1)


def _saturate_down(counter: int, minimum: int = 0) -> int:
    return max(minimum, counter - 1)


@dataclass
class PredictorStats:
    """Accuracy counters for a direction predictor."""

    lookups: int = 0
    correct: int = 0
    mispredictions: int = 0

    @property
    def accuracy(self) -> float:
        """Correct predictions per prediction (1.0 before any)."""
        if self.lookups == 0:
            return 0.0
        return self.correct / self.lookups

    @property
    def misprediction_rate(self) -> float:
        """Mispredictions per prediction (0.0 before any)."""
        if self.lookups == 0:
            return 0.0
        return self.mispredictions / self.lookups


class DirectionPredictor:
    """Interface for branch direction predictors."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.stats = PredictorStats()

    def predict(self, pc: int) -> bool:  # pragma: no cover - overridden
        """Predicted direction (True = taken) for the branch at ``pc``."""
        raise NotImplementedError

    def update(self, pc: int, taken: bool, predicted: bool) -> None:
        """Record the outcome and train the tables."""
        self.stats.lookups += 1
        if taken == predicted:
            self.stats.correct += 1
        else:
            self.stats.mispredictions += 1
        self._train(pc, taken)

    def _train(self, pc: int, taken: bool) -> None:  # pragma: no cover
        raise NotImplementedError


class BimodalPredictor(DirectionPredictor):
    """Per-pc 2-bit saturating counters."""

    def __init__(self, entries: int = 2048) -> None:
        super().__init__("bimodal")
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("entries must be a positive power of two")
        self.entries = entries
        self._table: Dict[int, int] = {}

    def _index(self, pc: int) -> int:
        return (pc >> 2) & (self.entries - 1)

    def predict(self, pc: int) -> bool:
        """Prediction from the 2-bit counter indexed by ``pc``."""
        counter = self._table.get(self._index(pc), 2)
        return counter >= 2

    def _train(self, pc: int, taken: bool) -> None:
        index = self._index(pc)
        counter = self._table.get(index, 2)
        self._table[index] = _saturate_up(counter) if taken else _saturate_down(counter)


class GSharePredictor(DirectionPredictor):
    """Global-history predictor (pc XOR history indexes a counter table)."""

    def __init__(self, entries: int = 4096, history_bits: int = 10) -> None:
        super().__init__("gshare")
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("entries must be a positive power of two")
        if history_bits <= 0:
            raise ValueError("history_bits must be positive")
        self.entries = entries
        self.history_bits = history_bits
        self._history = 0
        self._table: Dict[int, int] = {}
        self._history_mask = (1 << history_bits) - 1
        self._index_mask = entries - 1

    def _index(self, pc: int) -> int:
        history = self._history & self._history_mask
        return ((pc >> 2) ^ history) & self._index_mask

    def predict(self, pc: int) -> bool:
        """Prediction from the counter indexed by pc XOR global history."""
        history = self._history & self._history_mask
        counter = self._table.get(((pc >> 2) ^ history) & self._index_mask, 2)
        return counter >= 2

    def _train(self, pc: int, taken: bool) -> None:
        index = self._index(pc)
        counter = self._table.get(index, 2)
        self._table[index] = _saturate_up(counter) if taken else _saturate_down(counter)
        self._history = ((self._history << 1) | int(taken)) & self._history_mask


class BranchTargetBuffer:
    """Small set-associative BTB holding branch targets."""

    def __init__(self, entries: int = 512, associativity: int = 4) -> None:
        if entries <= 0 or associativity <= 0 or entries % associativity:
            raise ValueError("entries must be a positive multiple of associativity")
        self.entries = entries
        self.associativity = associativity
        self.num_sets = entries // associativity
        # set index -> list of (tag, target), most recently used first
        self._sets: Dict[int, list] = {}
        self.hits = 0
        self.misses = 0

    def _locate(self, pc: int) -> Tuple[int, int]:
        index = (pc >> 2) % self.num_sets
        tag = pc >> 2
        return index, tag

    def lookup(self, pc: int) -> Optional[int]:
        """Predicted target for ``pc``, or None on a BTB miss."""
        index, tag = self._locate(pc)
        entries = self._sets.get(index, [])
        for position, (stored_tag, target) in enumerate(entries):
            if stored_tag == tag:
                entries.insert(0, entries.pop(position))
                self.hits += 1
                return target
        self.misses += 1
        return None

    def update(self, pc: int, target: int) -> None:
        """Install/refresh the target of ``pc`` in its set."""
        index, tag = self._locate(pc)
        entries = self._sets.setdefault(index, [])
        for position, (stored_tag, _) in enumerate(entries):
            if stored_tag == tag:
                entries[position] = (tag, target)
                entries.insert(0, entries.pop(position))
                return
        entries.insert(0, (tag, target))
        del entries[self.associativity:]


class BranchUnit:
    """Direction predictor + BTB packaged for the fetch stage."""

    def __init__(self, predictor: Optional[DirectionPredictor] = None,
                 btb: Optional[BranchTargetBuffer] = None) -> None:
        self.predictor = predictor or GSharePredictor()
        self.btb = btb or BranchTargetBuffer()
        self.lookups = 0

    def predict(self, pc: int) -> Tuple[bool, Optional[int]]:
        """Predict (taken?, target) for a conditional branch at ``pc``."""
        self.lookups += 1
        taken = self.predictor.predict(pc)
        target = self.btb.lookup(pc) if taken else None
        return taken, target

    def resolve(self, pc: int, taken: bool, predicted: bool,
                target: Optional[int]) -> None:
        """Train both structures once the branch outcome is known."""
        self.predictor.update(pc, taken, predicted)
        if taken and target is not None:
            self.btb.update(pc, target)

    @property
    def misprediction_rate(self) -> float:
        """Direction-misprediction rate of the underlying predictor."""
        return self.predictor.stats.misprediction_rate


#: Direction predictors by ``ProcessorConfig.predictor_kind`` (matched in
#: any case): ``(entries, history_bits) -> predictor``.
PREDICTOR_KINDS: Dict[str, Callable[[int, int], DirectionPredictor]] = {
    "gshare": GSharePredictor,
    "bimodal": lambda entries, history_bits: BimodalPredictor(entries),
}


def make_direction_predictor(kind: str, entries: int = 4096,
                             history_bits: int = 10) -> DirectionPredictor:
    """Factory: 'gshare' or 'bimodal'."""
    try:
        build = PREDICTOR_KINDS[kind.lower()]
    except KeyError as exc:
        raise ValueError(f"unknown predictor kind {kind!r}") from exc
    return build(entries, history_bits)
