"""Composite predictors: hybrid selection and prediction filtering.

Extensions modelled on the multi-predictor-and-filter design of Sheikh
and Hower (HPCA 2019, the paper's reference [12]):

* :class:`HybridPredictor` consults several component predictors and
  forwards the most confident prediction.
* :class:`FilteredPredictor` gates an inner predictor so it only
  predicts loads that have missed the cache at least ``min_misses``
  times — a coverage/table-pressure filter.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.errors import PredictorError
from repro.vp.base import AccessKey, Prediction, ValuePredictor


class HybridPredictor(ValuePredictor):
    """Forwards the highest-confidence component prediction.

    All components are trained on every load; ties go to the earliest
    component in the sequence, so ordering expresses priority.
    """

    name = "hybrid"

    def __init__(self, components: Sequence[ValuePredictor]) -> None:
        super().__init__()
        if not components:
            raise PredictorError("hybrid predictor needs at least one component")
        self.components: List[ValuePredictor] = list(components)
        self.name = "hybrid(" + "+".join(c.name for c in self.components) + ")"

    def predict(self, key: AccessKey) -> Optional[Prediction]:
        """See :meth:`repro.vp.base.ValuePredictor.predict`."""
        best: Optional[Prediction] = None
        for component in self.components:
            candidate = component.predict(key)
            if candidate is None:
                continue
            if best is None or candidate.confidence > best.confidence:
                best = candidate
        return self._record_lookup(best)

    def train(
        self,
        key: AccessKey,
        actual_value: int,
        prediction: Optional[Prediction] = None,
    ) -> None:
        """See :meth:`repro.vp.base.ValuePredictor.train`."""
        self._record_train(actual_value, prediction)
        for component in self.components:
            component.train(key, actual_value, prediction)

    def reset(self) -> None:
        """See :meth:`repro.vp.base.ValuePredictor.reset`."""
        for component in self.components:
            component.reset()

    def bind_streams(self, stream) -> None:
        """See :meth:`repro.vp.base.ValuePredictor.bind_streams`."""
        for component in self.components:
            component.bind_streams(stream)

    def _snapshot_state(self) -> object:
        """See :meth:`repro.vp.base.ValuePredictor._snapshot_state`."""
        return tuple(component.snapshot() for component in self.components)

    def _restore_state(self, state: object) -> None:
        """See :meth:`repro.vp.base.ValuePredictor._restore_state`."""
        for component, saved in zip(self.components, state):  # type: ignore[call-overload]
            component.restore(saved)


class FilteredPredictor(ValuePredictor):
    """Predicts only for loads that have missed at least ``min_misses`` times.

    Args:
        inner: The wrapped predictor (trained on every observed load).
        min_misses: Miss-count threshold before predictions are allowed.
        index_function_of_inner: The filter counts misses per inner
            predictor index when the inner predictor exposes an
            ``index_function``; otherwise per load PC.
    """

    def __init__(self, inner: ValuePredictor, min_misses: int = 2) -> None:
        super().__init__()
        if min_misses < 0:
            raise PredictorError(f"min_misses must be >= 0, got {min_misses}")
        self.inner = inner
        self.min_misses = min_misses
        self.name = f"filtered({inner.name},{min_misses})"
        self._miss_counts: Dict[int, int] = {}

    def _filter_key(self, key: AccessKey) -> int:
        index_function = getattr(self.inner, "index_function", None)
        if index_function is not None:
            return index_function.index_of(key)
        return key.pc

    def predict(self, key: AccessKey) -> Optional[Prediction]:
        """See :meth:`repro.vp.base.ValuePredictor.predict`."""
        filter_key = self._filter_key(key)
        count = self._miss_counts.get(filter_key, 0)
        if count < self.min_misses:
            # Still consult (and charge) the inner predictor's stats by
            # skipping it entirely: a filtered load sees no prediction.
            return self._record_lookup(None)
        return self._record_lookup(self.inner.predict(key))

    def train(
        self,
        key: AccessKey,
        actual_value: int,
        prediction: Optional[Prediction] = None,
    ) -> None:
        """See :meth:`repro.vp.base.ValuePredictor.train`."""
        self._record_train(actual_value, prediction)
        filter_key = self._filter_key(key)
        self._miss_counts[filter_key] = self._miss_counts.get(filter_key, 0) + 1
        self.inner.train(key, actual_value, prediction)

    def reset(self) -> None:
        """See :meth:`repro.vp.base.ValuePredictor.reset`."""
        self._miss_counts.clear()
        self.inner.reset()

    def _snapshot_state(self) -> object:
        """See :meth:`repro.vp.base.ValuePredictor._snapshot_state`."""
        return (self.inner.snapshot(), dict(self._miss_counts))

    def _restore_state(self, state: object) -> None:
        """See :meth:`repro.vp.base.ValuePredictor._restore_state`."""
        inner_state, miss_counts = state  # type: ignore[misc]
        self.inner.restore(inner_state)
        self._miss_counts = dict(miss_counts)
