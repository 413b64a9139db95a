"""Finite Context Method (FCM) value predictor.

A two-level predictor (extension beyond the paper's evaluation): the
first level records the recent value history of each static load; the
second level maps a hash of that history to the value that followed it
last time.  Captures repeating value *sequences* that LVP cannot.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple

from repro.errors import PredictorError
from repro.vp.base import AccessKey, Prediction, ValuePredictor
from repro.vp.indexing import PC_INDEX, IndexFunction

_VALUE_MASK = (1 << 64) - 1


def _hash_history(history: Tuple[int, ...]) -> int:
    """Order-sensitive FNV-style hash of a value history."""
    digest = 0xCBF29CE484222325
    for value in history:
        digest ^= value & _VALUE_MASK
        digest = (digest * 0x100000001B3) & _VALUE_MASK
        digest ^= digest >> 29
    return digest


@dataclass
class _SecondLevelEntry:
    """Value + confidence stored for one (load, history) context."""

    value: int
    confidence: int = 1
    usefulness: int = 1


class FcmPredictor(ValuePredictor):
    """Order-``order`` finite-context-method predictor.

    Args:
        order: Length of the per-load value history used as context.
        confidence_threshold: Matches required before predicting.
        capacity: Bound on second-level entries (least-useful evicted).
        index_function: Load-to-first-level mapping.
    """

    name = "fcm"

    def __init__(
        self,
        order: int = 2,
        confidence_threshold: int = 2,
        capacity: int = 1024,
        index_function: IndexFunction = PC_INDEX,
        max_confidence: int = 15,
    ) -> None:
        super().__init__()
        if order < 1:
            raise PredictorError(f"order must be >= 1, got {order}")
        if confidence_threshold < 1:
            raise PredictorError(
                f"confidence threshold must be >= 1, got {confidence_threshold}"
            )
        self.order = order
        self.confidence_threshold = confidence_threshold
        self.capacity = capacity
        self.index_function = index_function
        self.max_confidence = max_confidence
        self._histories: Dict[int, Deque[int]] = {}
        self._contexts: Dict[Tuple[int, int], _SecondLevelEntry] = {}

    # ------------------------------------------------------------------
    def _context_key(self, index: int) -> Optional[Tuple[int, int]]:
        history = self._histories.get(index)
        if history is None or len(history) < self.order:
            return None
        return (index, _hash_history(tuple(history)))

    def predict(self, key: AccessKey) -> Optional[Prediction]:
        """See :meth:`repro.vp.base.ValuePredictor.predict`."""
        index = self.index_function.index_of(key)
        context_key = self._context_key(index)
        prediction = None
        if context_key is not None:
            entry = self._contexts.get(context_key)
            if entry is not None and entry.confidence >= self.confidence_threshold:
                prediction = Prediction(
                    value=entry.value, confidence=entry.confidence, source=self.name
                )
        return self._record_lookup(prediction)

    def train(
        self,
        key: AccessKey,
        actual_value: int,
        prediction: Optional[Prediction] = None,
    ) -> None:
        """See :meth:`repro.vp.base.ValuePredictor.train`."""
        self._record_train(actual_value, prediction)
        index = self.index_function.index_of(key)
        context_key = self._context_key(index)
        if context_key is not None:
            entry = self._contexts.get(context_key)
            if entry is None:
                if len(self._contexts) >= self.capacity:
                    victim = min(
                        self._contexts,
                        key=lambda k: self._contexts[k].usefulness,
                    )
                    del self._contexts[victim]
                    self.stats.evictions += 1
                self._contexts[context_key] = _SecondLevelEntry(value=actual_value)
            elif entry.value == actual_value:
                entry.confidence = min(entry.confidence + 1, self.max_confidence)
                entry.usefulness = min(entry.usefulness + 1, 63)
            else:
                entry.value = actual_value
                entry.confidence = 0
                entry.usefulness = max(entry.usefulness - 1, 0)
        history = self._histories.setdefault(index, deque(maxlen=self.order))
        history.append(actual_value)

    def reset(self) -> None:
        """See :meth:`repro.vp.base.ValuePredictor.reset`."""
        self._histories.clear()
        self._contexts.clear()
