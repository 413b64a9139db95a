"""Last Value Predictor (LVP).

The baseline (non-secure) predictor the paper evaluates, following
Lipasti, Wilkerson and Shen's original proposal [8]: predict that a
load will return the same value it returned last time, once the value
has repeated ``confidence_threshold`` times.

Per the paper's footnote 3, with a threshold of *C* the predictor
"will output a first prediction on the confidence + 1 access": the
first access installs the entry (confidence 1) and each matching
access increments it, so after *C* accesses confidence equals *C* and
the *C+1*-th access is predicted.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import PredictorError
from repro.vp.base import AccessKey, Prediction, ValuePredictor
from repro.vp.indexing import PC_INDEX, IndexFunction
from repro.vp.table import (
    DEFAULT_MAX_CONFIDENCE,
    DEFAULT_MAX_USEFULNESS,
    DEFAULT_VHIST_LENGTH,
    VpTable,
)


class LastValuePredictor(ValuePredictor):
    """The classic last-value predictor.

    Args:
        confidence_threshold: Number of observations of the same value
            required before predictions start (the paper's
            ``confidence`` parameter, default 4).
        capacity: Maximum number of table entries; the least-useful
            entry is evicted when full.
        index_function: How loads map to entries (PC-based by default).
        max_confidence: Saturation ceiling of the confidence counter.
        max_usefulness: Saturation ceiling of the usefulness counter.
        vhist_length: Per-entry value-history length.
    """

    name = "lvp"

    def __init__(
        self,
        confidence_threshold: int = 4,
        capacity: int = 256,
        index_function: IndexFunction = PC_INDEX,
        max_confidence: int = DEFAULT_MAX_CONFIDENCE,
        max_usefulness: int = DEFAULT_MAX_USEFULNESS,
        vhist_length: int = DEFAULT_VHIST_LENGTH,
    ) -> None:
        super().__init__()
        if confidence_threshold < 1:
            raise PredictorError(
                f"confidence threshold must be >= 1, got {confidence_threshold}"
            )
        if max_confidence < confidence_threshold:
            raise PredictorError(
                "max_confidence must be at least the confidence threshold"
            )
        self.confidence_threshold = confidence_threshold
        self.index_function = index_function
        self.max_confidence = max_confidence
        self.max_usefulness = max_usefulness
        self.vhist_length = vhist_length
        self.table = VpTable(capacity=capacity)

    # ------------------------------------------------------------------
    def predict(self, key: AccessKey) -> Optional[Prediction]:
        """See :meth:`repro.vp.base.ValuePredictor.predict`."""
        index = self.index_function.index_of(key)
        entry = self.table.get(index)
        if entry is not None and entry.confidence >= self.confidence_threshold:
            prediction = Prediction(
                value=entry.value, confidence=entry.confidence, source=self.name
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
        entry = self.table.get(index)
        if entry is None:
            evictions_before = self.table.evictions
            self.table.insert(index, actual_value, vhist_length=self.vhist_length)
            self.stats.evictions += self.table.evictions - evictions_before
            return
        entry.observe(
            actual_value,
            max_confidence=self.max_confidence,
            max_usefulness=self.max_usefulness,
        )

    def reset(self) -> None:
        """See :meth:`repro.vp.base.ValuePredictor.reset`."""
        self.table.clear()

    # ------------------------------------------------------------------
    def confidence_of(self, key: AccessKey) -> int:
        """The confidence currently held for ``key`` (0 if absent)."""
        entry = self.table.get(self.index_function.index_of(key))
        return entry.confidence if entry is not None else 0

    def value_of(self, key: AccessKey) -> Optional[int]:
        """The stored last value for ``key``, or ``None``."""
        entry = self.table.get(self.index_function.index_of(key))
        return entry.value if entry is not None else None
