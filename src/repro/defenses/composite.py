"""Composable defense stacks.

Section VI-B of the paper evaluates defenses in combination ("When all
the A-type, D-type, and R-type defenses are combined, all attacks we
have considered can be defended").  :class:`DefenseStack` applies a
sequence of defenses to a predictor and a core config; predictor
wrappers compose inside-out (the first defense in the list wraps
closest to the raw predictor).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.defenses.base import Defense
from repro.pipeline.config import CoreConfig
from repro.vp.base import ValuePredictor


class DefenseStack(Defense):
    """An ordered combination of defenses, itself usable as a defense."""

    def __init__(self, defenses: Sequence[Defense] = ()) -> None:
        self.defenses: List[Defense] = list(defenses)
        self.name = "+".join(d.name for d in self.defenses) or "none"

    def wrap_predictor(self, predictor: ValuePredictor) -> ValuePredictor:
        """See :meth:`repro.defenses.base.Defense.wrap_predictor`."""
        for defense in self.defenses:
            predictor = defense.wrap_predictor(predictor)
        return predictor

    def adjust_config(self, config: CoreConfig) -> CoreConfig:
        """See :meth:`repro.defenses.base.Defense.adjust_config`."""
        for defense in self.defenses:
            config = defense.adjust_config(config)
        return config

    def __iter__(self):
        return iter(self.defenses)

    def __len__(self) -> int:
        return len(self.defenses)


def full_stack(window_size: int = 9, a_mode: str = "history") -> DefenseStack:
    """The paper's "all defenses combined" configuration (A + D + R)."""
    from repro.defenses.always_predict import AlwaysPredictDefense
    from repro.defenses.delay_effects import DelaySideEffectsDefense
    from repro.defenses.random_window import RandomWindowDefense

    return DefenseStack(
        [
            RandomWindowDefense(window_size=window_size),
            AlwaysPredictDefense(mode=a_mode),
            DelaySideEffectsDefense(),
        ]
    )
