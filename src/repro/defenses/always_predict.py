"""A-type defense: always predict a value.

From the paper (Section VI-A): "Always predict a value (A-type)
defense makes the predictor always predict the value based on a fixed
value or on a history value regardless of whether confidence level is
reached or not.  In this case, the attacks based on differentiating
from prediction vs. no prediction timing are protected."

Two modes are provided:

* ``mode="history"`` — when the wrapped predictor declines, predict
  the last value this wrapper observed for the same load (or the
  fixed value if the load was never seen).  Confidence gating
  disappears, so *no prediction* never happens, closing the paper's
  new no-prediction-vs-correct-prediction channel (e.g. Spill Over's
  signal) while retaining most of the predictor's benefit.
* ``mode="fixed"`` — predict a single fixed value for every miss,
  ignoring learned state entirely.  This is the strongest (and
  costliest) reading: both hypotheses of any value-based attack see
  identical predictor behaviour.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import PredictorError
from repro.vp.base import AccessKey, Prediction, ValuePredictor
from repro.vp.indexing import PC_INDEX, IndexFunction
from repro.defenses.base import Defense


class AlwaysPredictWrapper(ValuePredictor):
    """Predictor wrapper implementing the A-type defense."""

    def __init__(
        self,
        inner: ValuePredictor,
        mode: str = "history",
        fixed_value: int = 0,
        index_function: IndexFunction = PC_INDEX,
    ) -> None:
        super().__init__()
        if mode not in ("history", "fixed"):
            raise PredictorError(f"unknown A-type mode {mode!r}")
        self.inner = inner
        self.mode = mode
        self.fixed_value = fixed_value
        self.index_function = index_function
        self.name = f"A[{mode}]({inner.name})"
        # Shadow last-value table so the fallback works for any inner
        # predictor, not just ones exposing their entries.
        self._shadow: Dict[int, int] = {}

    def predict(self, key: AccessKey) -> Optional[Prediction]:
        """See :meth:`repro.vp.base.ValuePredictor.predict`."""
        if self.mode == "fixed":
            # The fixed mode bypasses the inner predictor's decision
            # entirely: every miss load sees the same prediction.
            self.inner.predict(key)  # keep inner stats/structures live
            return self._record_lookup(
                Prediction(value=self.fixed_value, confidence=0, source=self.name)
            )
        prediction = self.inner.predict(key)
        if prediction is None:
            index = self.index_function.index_of(key)
            value = self._shadow.get(index, self.fixed_value)
            prediction = Prediction(value=value, confidence=0, source=self.name)
        return self._record_lookup(prediction)

    def train(
        self,
        key: AccessKey,
        actual_value: int,
        prediction: Optional[Prediction] = None,
    ) -> None:
        """See :meth:`repro.vp.base.ValuePredictor.train`."""
        self._record_train(actual_value, prediction)
        self._shadow[self.index_function.index_of(key)] = actual_value
        # The inner predictor should see only predictions it produced.
        inner_prediction = (
            prediction if prediction is not None and prediction.source != self.name
            else None
        )
        self.inner.train(key, actual_value, inner_prediction)

    def reset(self) -> None:
        """See :meth:`repro.vp.base.ValuePredictor.reset`."""
        self._shadow.clear()
        self.inner.reset()


class AlwaysPredictDefense(Defense):
    """A-type defense factory usable in defense stacks."""

    def __init__(self, mode: str = "history", fixed_value: int = 0) -> None:
        if mode not in ("history", "fixed"):
            raise PredictorError(f"unknown A-type mode {mode!r}")
        self.mode = mode
        self.fixed_value = fixed_value
        self.name = f"A[{mode}]"

    def wrap_predictor(self, predictor: ValuePredictor) -> ValuePredictor:
        """See :meth:`repro.defenses.base.Defense.wrap_predictor`."""
        return AlwaysPredictWrapper(
            predictor, mode=self.mode, fixed_value=self.fixed_value
        )
