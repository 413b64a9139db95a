"""R-type defense: randomly predict a value out of a window.

From the paper (Section VI-A): "Randomly predict a value (R-type)
defense randomly predicts a value out of a window around the actual
accessed value.  Assuming the window size is S, the rate of randomly
predicting the correct value is 1/S."

Implementation: when the wrapped predictor produces a prediction with
value *v*, the wrapper returns ``v + offset`` where ``offset`` is
drawn uniformly from the ``S`` consecutive integers centred on zero
(``-(S//2) .. S-1-S//2``).  Provided the predictor has learnt the
actual value (``v == actual``), the prediction is correct with
probability exactly ``1/S``; the paper's Section VI-B sweeps S to find
the minimum window that pushes each attack's p-value above 0.05
(S = 3 for Train+Test, S = 9 for Test+Hit).

Each trial draws its offsets from its own stream,
:func:`~repro.vp.base.trial_stream` of ``(defense seed, trial seed)``,
bound whenever the trial's predictor chain is built
(:meth:`~repro.vp.base.ValuePredictor.bind_streams`).  The offsets
still differ from run to run — every trial has a distinct seed — but a
trial is a pure function of its seed like every other trial, so the
defense imposes no order on how trials are scheduled.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.errors import PredictorError
from repro.vp.base import AccessKey, Prediction, ValuePredictor
from repro.defenses.base import Defense

#: Default stream salt of the defense (and of a standalone wrapper).
DEFAULT_SEED = 0x5EED

_VALUE_MASK = (1 << 64) - 1


class RandomWindowWrapper(ValuePredictor):
    """Predictor wrapper implementing the R-type defense."""

    def __init__(
        self,
        inner: ValuePredictor,
        window_size: int = 3,
        rng: Optional[random.Random] = None,
        seed: int = DEFAULT_SEED,
    ) -> None:
        super().__init__()
        if window_size < 1:
            raise PredictorError(f"window size must be >= 1, got {window_size}")
        self.inner = inner
        self.window_size = window_size
        #: Salt of the per-trial stream :meth:`bind_streams` attaches.
        self.seed = seed
        self._rng = rng or random.Random(seed)
        self.name = f"R[{window_size}]({inner.name})"

    def predict(self, key: AccessKey) -> Optional[Prediction]:
        """See :meth:`repro.vp.base.ValuePredictor.predict`."""
        prediction = self.inner.predict(key)
        if prediction is not None and self.window_size > 1:
            low = -(self.window_size // 2)
            high = low + self.window_size - 1
            offset = self._rng.randint(low, high)
            prediction = Prediction(
                value=(prediction.value + offset) & _VALUE_MASK,
                confidence=prediction.confidence,
                source=self.name,
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
        # The inner predictor trains on the true value; it must not be
        # penalised for the randomisation this wrapper injected, so the
        # forwarded prediction is suppressed when we perturbed it.
        inner_prediction = (
            prediction
            if prediction is not None and prediction.source != self.name
            else None
        )
        self.inner.train(key, actual_value, inner_prediction)

    def reset(self) -> None:
        """See :meth:`repro.vp.base.ValuePredictor.reset`."""
        self.inner.reset()

    def bind_streams(self, stream) -> None:
        """See :meth:`repro.vp.base.ValuePredictor.bind_streams`."""
        self._rng = stream(self.seed)
        self.inner.bind_streams(stream)

    def _snapshot_state(self) -> object:
        """See :meth:`repro.vp.base.ValuePredictor._snapshot_state`."""
        return (self.inner.snapshot(), self._rng.getstate())

    def _restore_state(self, state: object) -> None:
        """See :meth:`repro.vp.base.ValuePredictor._restore_state`."""
        inner_state, rng_state = state  # type: ignore[misc]
        self.inner.restore(inner_state)
        self._rng.setstate(rng_state)


class RandomWindowDefense(Defense):
    """R-type defense factory usable in defense stacks.

    Pure configuration: the window size and the salt of the per-trial
    streams.  Randomisation differs from run to run because every
    trial's stream is seeded from that trial's own seed (a single fixed
    stream would replay the same offset at the same point of every
    trial, turning the defense into a deterministic — and attackable —
    value transformation).
    """

    def __init__(self, window_size: int = 3, seed: int = DEFAULT_SEED) -> None:
        if window_size < 1:
            raise PredictorError(f"window size must be >= 1, got {window_size}")
        self.window_size = window_size
        self.seed = seed
        self.name = f"R[{window_size}]"

    def wrap_predictor(self, predictor: ValuePredictor) -> ValuePredictor:
        """See :meth:`repro.defenses.base.Defense.wrap_predictor`."""
        return RandomWindowWrapper(
            predictor, window_size=self.window_size, seed=self.seed
        )
