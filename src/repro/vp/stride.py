"""Stride value predictor.

An extension beyond the paper's evaluated LVP/VTAGE pair: predicts
``last_value + stride`` once the same stride has been observed
``confidence_threshold`` times in a row.  A constant value is a stride
of zero, so a trained stride predictor subsumes LVP behaviour — and is
therefore vulnerable to the same attacks (exercised by the extension
benches).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import PredictorError
from repro.vp.base import AccessKey, Prediction, ValuePredictor
from repro.vp.indexing import PC_INDEX, IndexFunction

_VALUE_MASK = (1 << 64) - 1


@dataclass
class _StrideEntry:
    """Per-index stride-predictor state."""

    last_value: int
    stride: int = 0
    confidence: int = 0
    usefulness: int = 1

    def observe(self, actual_value: int, max_confidence: int) -> None:
        """Record the actual value and update the tracked stride."""
        observed_stride = (actual_value - self.last_value) & _VALUE_MASK
        if observed_stride == self.stride:
            self.confidence = min(self.confidence + 1, max_confidence)
            self.usefulness = min(self.usefulness + 1, 63)
        else:
            self.stride = observed_stride
            self.confidence = 0
            self.usefulness = max(self.usefulness - 1, 0)
        self.last_value = actual_value


class StridePredictor(ValuePredictor):
    """Predicts ``last_value + stride`` for stable strides.

    Args:
        confidence_threshold: Consecutive stride confirmations required
            before predicting.
        capacity: Maximum tracked entries (least-useful evicted).
        index_function: Load-to-entry mapping (PC-based by default).
    """

    name = "stride"

    def __init__(
        self,
        confidence_threshold: int = 3,
        capacity: int = 256,
        index_function: IndexFunction = PC_INDEX,
        max_confidence: int = 15,
    ) -> None:
        super().__init__()
        if confidence_threshold < 1:
            raise PredictorError(
                f"confidence threshold must be >= 1, got {confidence_threshold}"
            )
        if capacity < 1:
            raise PredictorError(f"capacity must be >= 1, got {capacity}")
        self.confidence_threshold = confidence_threshold
        self.capacity = capacity
        self.index_function = index_function
        self.max_confidence = max_confidence
        self._entries: Dict[int, _StrideEntry] = {}

    def predict(self, key: AccessKey) -> Optional[Prediction]:
        """See :meth:`repro.vp.base.ValuePredictor.predict`."""
        index = self.index_function.index_of(key)
        entry = self._entries.get(index)
        if entry is not None and entry.confidence >= self.confidence_threshold:
            prediction = Prediction(
                value=(entry.last_value + entry.stride) & _VALUE_MASK,
                confidence=entry.confidence,
                source=self.name,
            )
        else:
            prediction = None
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
        entry = self._entries.get(index)
        if entry is None:
            if len(self._entries) >= self.capacity:
                victim = min(
                    self._entries, key=lambda i: self._entries[i].usefulness
                )
                del self._entries[victim]
                self.stats.evictions += 1
            self._entries[index] = _StrideEntry(last_value=actual_value)
            return
        entry.observe(actual_value, self.max_confidence)

    def reset(self) -> None:
        """See :meth:`repro.vp.base.ValuePredictor.reset`."""
        self._entries.clear()

    def confidence_of(self, key: AccessKey) -> int:
        """Confidence for ``key`` (0 if untracked)."""
        entry = self._entries.get(self.index_function.index_of(key))
        return entry.confidence if entry is not None else 0
