"""Value-predictor interfaces.

The pipeline talks to every predictor through two calls, mirroring the
paper's Figure 1:

* :meth:`ValuePredictor.predict` — consulted when a load *misses* in
  the L1 data cache (the paper's threat model is a load-based VPS
  where training and triggering require a cache miss).  Returns a
  :class:`Prediction` or ``None`` ("no prediction"); the paper is the
  first to point out that *no prediction vs. correct prediction* is
  itself an exploitable timing difference.
* :meth:`ValuePredictor.train` — called when the actual value arrives
  from memory (the "Prediction Verification" box of Figure 1).  The
  predictor updates confidence/usefulness/value state.

Predictors receive an :class:`AccessKey` carrying the load PC, the
data's virtual address and the pid; each predictor derives its table
index from the key via an :class:`~repro.vp.indexing.IndexFunction`.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

_SEED_MASK = (1 << 64) - 1


def trial_stream(salt: int, trial_seed: int) -> random.Random:
    """The random stream a predictor wrapper keyed by ``salt`` draws
    from in the trial seeded ``trial_seed``.

    A pure function of its two arguments, so every trial — scalar or
    one lane of a lockstep batch — sees the same draws no matter which
    other trials ran before it or beside it.
    """
    return random.Random(
        ((salt & _SEED_MASK) << 64) | (trial_seed & _SEED_MASK)
    )


@dataclass(frozen=True)
class AccessKey:
    """Identity of one dynamic load as seen by the VPS.

    Attributes:
        pc: Program counter (virtual instruction address) of the load.
        addr: Virtual address of the data being loaded.
        pid: Process identifier of the issuing process.
    """

    pc: int
    addr: int
    pid: int = 0


@dataclass(frozen=True)
class Prediction:
    """A value prediction produced by :meth:`ValuePredictor.predict`.

    Attributes:
        value: The predicted load value.
        confidence: The entry's confidence counter at prediction time.
        source: Name of the predictor (component) that produced it.
    """

    value: int
    confidence: int
    source: str = "vp"


@dataclass
class PredictorStats:
    """Aggregate counters maintained by every predictor."""

    lookups: int = 0
    predictions: int = 0
    no_predictions: int = 0
    trains: int = 0
    correct: int = 0
    incorrect: int = 0
    evictions: int = 0

    @property
    def coverage(self) -> float:
        """Fraction of lookups that produced a prediction."""
        if self.lookups == 0:
            return 0.0
        return self.predictions / self.lookups

    @property
    def accuracy(self) -> float:
        """Fraction of verified predictions that were correct."""
        verified = self.correct + self.incorrect
        if verified == 0:
            return 0.0
        return self.correct / verified

    def reset(self) -> None:
        """See :meth:`repro.vp.base.ValuePredictor.reset`."""
        self.lookups = 0
        self.predictions = 0
        self.no_predictions = 0
        self.trains = 0
        self.correct = 0
        self.incorrect = 0
        self.evictions = 0


class ValuePredictor(abc.ABC):
    """Abstract base class of all Value Prediction Systems."""

    #: Human-readable name used in reports.
    name: str = "vp"

    def __init__(self) -> None:
        self.stats = PredictorStats()

    @abc.abstractmethod
    def predict(self, key: AccessKey) -> Optional[Prediction]:
        """Predict the value of the load identified by ``key``.

        Returns ``None`` when the predictor is not confident enough —
        the "no prediction" outcome.
        """

    @abc.abstractmethod
    def train(
        self,
        key: AccessKey,
        actual_value: int,
        prediction: Optional[Prediction] = None,
    ) -> None:
        """Update predictor state with the load's actual value.

        Args:
            key: The load's identity.
            actual_value: The value the memory system returned.
            prediction: The prediction previously issued for this load
                (if any), so the predictor can credit or penalise the
                producing entry.
        """

    @abc.abstractmethod
    def reset(self) -> None:
        """Clear all predictor state (table contents and histories)."""

    def bind_streams(self, stream: Callable[[int], Any]) -> None:
        """Attach the chain's per-trial random streams.

        ``stream(salt)`` returns the object a randomising wrapper keyed
        by ``salt`` draws from (anything with ``randint``; normally
        :func:`trial_stream` under the trial's seed).  Wrappers forward
        the call to the predictor they wrap; plain predictors draw
        nothing.
        """
        inner = getattr(self, "inner", None)
        if isinstance(inner, ValuePredictor):
            inner.bind_streams(stream)

    # ------------------------------------------------------------------
    # Shared accounting helpers for subclasses.
    # ------------------------------------------------------------------
    def _record_lookup(self, prediction: Optional[Prediction]) -> Optional[Prediction]:
        self.stats.lookups += 1
        if prediction is None:
            self.stats.no_predictions += 1
        else:
            self.stats.predictions += 1
        return prediction

    def _record_train(
        self, actual_value: int, prediction: Optional[Prediction]
    ) -> None:
        self.stats.trains += 1
        if prediction is not None:
            if prediction.value == actual_value:
                self.stats.correct += 1
            else:
                self.stats.incorrect += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
