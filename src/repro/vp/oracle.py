"""Oracle target-load predictor wrapper.

The paper's experimental setup uses "an oracle VTAGE" that "makes
predictions only for the target load instruction to maximize the
attacker's advantage" (Section IV-C).  :class:`OracleTargetPredictor`
reproduces that: it wraps any inner predictor, trains it on every
load, but emits predictions only for loads whose PC is in the target
set — isolating the attack's signal from unrelated predictions.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set

from repro.errors import PredictorError
from repro.vp.base import AccessKey, Prediction, ValuePredictor


class OracleTargetPredictor(ValuePredictor):
    """Restricts an inner predictor to a set of target load PCs.

    Args:
        inner: The predictor that actually learns and predicts.
        target_pcs: Load PCs that are allowed to receive predictions.
            The set may be extended later with :meth:`add_target`.
    """

    def __init__(
        self, inner: ValuePredictor, target_pcs: Iterable[int] = ()
    ) -> None:
        super().__init__()
        if inner is None:
            raise PredictorError("oracle wrapper requires an inner predictor")
        self.inner = inner
        self.name = f"oracle({inner.name})"
        self._targets: Set[int] = set(target_pcs)

    def add_target(self, pc: int) -> None:
        """Allow predictions for the load at ``pc``."""
        self._targets.add(pc)

    def remove_target(self, pc: int) -> None:
        """Stop predicting for the load at ``pc``."""
        self._targets.discard(pc)

    @property
    def targets(self) -> Set[int]:
        """The currently allowed target PCs."""
        return set(self._targets)

    def predict(self, key: AccessKey) -> Optional[Prediction]:
        """See :meth:`repro.vp.base.ValuePredictor.predict`."""
        if key.pc not in self._targets:
            # The inner predictor is not consulted at all: an oracle
            # suppressed load behaves exactly like "no prediction".
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
        self.inner.train(key, actual_value, prediction)

    def reset(self) -> None:
        """See :meth:`repro.vp.base.ValuePredictor.reset`."""
        self.inner.reset()
