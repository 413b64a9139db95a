"""The "no VP" baseline: a predictor that never predicts.

Used for the paper's control experiments (the left column of
Figures 5 and 8 and the "No VP" columns of Table III): with this
predictor installed, mapped and unmapped timing distributions must be
statistically indistinguishable.
"""

from __future__ import annotations

from typing import Optional

from repro.vp.base import AccessKey, Prediction, ValuePredictor


class NoPredictor(ValuePredictor):
    """Always returns "no prediction" and learns nothing."""

    name = "no-vp"

    def predict(self, key: AccessKey) -> Optional[Prediction]:
        """See :meth:`repro.vp.base.ValuePredictor.predict`."""
        return self._record_lookup(None)

    def train(
        self,
        key: AccessKey,
        actual_value: int,
        prediction: Optional[Prediction] = None,
    ) -> None:
        """See :meth:`repro.vp.base.ValuePredictor.train`."""
        self._record_train(actual_value, prediction)

    def reset(self) -> None:
        """See :meth:`repro.vp.base.ValuePredictor.reset`."""
        pass
