"""Unit tests for the A/D/R defenses and defense stacks."""

import math

import pytest

from repro.defenses.always_predict import (
    AlwaysPredictDefense,
    AlwaysPredictWrapper,
)
from repro.defenses.composite import DefenseStack, full_stack
from repro.defenses.delay_effects import DelaySideEffectsDefense
from repro.defenses.invisispec import InvisiSpecDefense
from repro.defenses.random_window import (
    RandomWindowDefense,
    RandomWindowWrapper,
)
from repro.errors import PredictorError
from repro.pipeline.config import CoreConfig
from repro.vp.base import AccessKey
from repro.vp.lvp import LastValuePredictor


def key(pc=0x1000, addr=0x100):
    return AccessKey(pc=pc, addr=addr, pid=0)


class TestAlwaysPredict:
    def test_history_mode_never_declines_once_seen(self):
        wrapper = AlwaysPredictWrapper(
            LastValuePredictor(confidence_threshold=4), mode="history"
        )
        wrapper.train(key(), 42)  # one observation, far below threshold
        prediction = wrapper.predict(key())
        assert prediction is not None
        assert prediction.value == 42

    def test_history_mode_falls_back_to_fixed_for_unseen(self):
        wrapper = AlwaysPredictWrapper(
            LastValuePredictor(), mode="history", fixed_value=17
        )
        assert wrapper.predict(key()).value == 17

    def test_fixed_mode_ignores_training(self):
        wrapper = AlwaysPredictWrapper(
            LastValuePredictor(confidence_threshold=1), mode="fixed",
            fixed_value=5,
        )
        for _ in range(10):
            wrapper.train(key(), 42)
        assert wrapper.predict(key()).value == 5

    def test_confident_inner_prediction_passes_through_history(self):
        wrapper = AlwaysPredictWrapper(
            LastValuePredictor(confidence_threshold=2), mode="history"
        )
        for _ in range(3):
            wrapper.train(key(), 42)
        prediction = wrapper.predict(key())
        assert prediction.value == 42

    def test_mode_validation(self):
        with pytest.raises(PredictorError):
            AlwaysPredictWrapper(LastValuePredictor(), mode="bogus")
        with pytest.raises(PredictorError):
            AlwaysPredictDefense(mode="bogus")

    def test_inner_not_penalised_for_wrapper_predictions(self):
        inner = LastValuePredictor(confidence_threshold=4)
        wrapper = AlwaysPredictWrapper(inner, mode="history")
        wrapper.train(key(), 42)
        prediction = wrapper.predict(key())
        wrapper.train(key(), 99, prediction)
        assert inner.stats.incorrect == 0  # the wrapper's guess, not inner's

    def test_defense_wraps(self):
        defense = AlwaysPredictDefense(mode="history")
        wrapped = defense.wrap_predictor(LastValuePredictor())
        assert isinstance(wrapped, AlwaysPredictWrapper)
        assert defense.adjust_config(CoreConfig()) == CoreConfig()


class TestRandomWindow:
    def _trained(self, window, rng_seed=1):
        import random
        inner = LastValuePredictor(confidence_threshold=2)
        wrapper = RandomWindowWrapper(
            inner, window_size=window, rng=random.Random(rng_seed)
        )
        for _ in range(3):
            wrapper.train(key(), 100)
        return wrapper

    def test_window_one_is_exact(self):
        wrapper = self._trained(1)
        assert wrapper.predict(key()).value == 100

    def test_predictions_stay_in_window(self):
        wrapper = self._trained(5)
        low = 100 - 2
        high = 100 + 2
        for _ in range(100):
            value = wrapper.predict(key()).value
            assert low <= value <= high

    def test_correct_rate_approximately_one_over_s(self):
        wrapper = self._trained(4)
        correct = sum(
            1 for _ in range(2000) if wrapper.predict(key()).value == 100
        )
        assert 0.20 <= correct / 2000 <= 0.30  # 1/4 +- sampling noise

    def test_no_prediction_stays_no_prediction(self):
        import random
        wrapper = RandomWindowWrapper(
            LastValuePredictor(confidence_threshold=4),
            window_size=3, rng=random.Random(0),
        )
        wrapper.train(key(), 100)  # below threshold
        assert wrapper.predict(key()) is None

    def test_per_trial_streams(self):
        """Each trial draws from a stream of (defense seed, trial seed)."""
        from repro.core.attack import bind_trial_streams

        def predictions(window, trial_seed, draws):
            chain = RandomWindowDefense(window_size=window, seed=3)
            wrapper = chain.wrap_predictor(
                LastValuePredictor(confidence_threshold=2)
            )
            bind_trial_streams(wrapper, trial_seed)
            for _ in range(3):
                wrapper.train(key(), 100)
            return [wrapper.predict(key()).value for _ in range(draws)]

        def trial_seed(index, mapped=True):
            return index * 7919 + (1 if mapped else 0)  # config seed 0

        # The same trial seed replays the same offsets ...
        assert predictions(8, trial_seed(5), 20) == predictions(
            8, trial_seed(5), 20
        )
        # ... and neighbouring trials (and hypotheses) draw differently.
        assert predictions(8, trial_seed(5), 20) != predictions(
            8, trial_seed(6), 20
        )
        assert predictions(8, trial_seed(5), 20) != predictions(
            8, trial_seed(5, mapped=False), 20
        )
        # Across trials the first draw is correct with probability 1/S.
        trials = 2000
        for window in (3, 8):
            correct = sum(
                predictions(window, trial_seed(i), 1) == [100]
                for i in range(trials)
            )
            p = 1 / window
            sigma = math.sqrt(p * (1 - p) / trials)
            assert abs(correct / trials - p) <= 3 * sigma, window

    def test_validation(self):
        with pytest.raises(PredictorError):
            RandomWindowDefense(window_size=0)
        with pytest.raises(PredictorError):
            RandomWindowWrapper(LastValuePredictor(), window_size=0)


class TestConfigDefenses:
    def test_dtype_sets_flag(self):
        config = DelaySideEffectsDefense().adjust_config(CoreConfig())
        assert config.delay_speculative_fills
        assert not config.invisispec

    def test_invisispec_sets_flag(self):
        config = InvisiSpecDefense().adjust_config(CoreConfig())
        assert config.invisispec

    def test_original_config_untouched(self):
        base = CoreConfig()
        DelaySideEffectsDefense().adjust_config(base)
        assert not base.delay_speculative_fills


class TestStacks:
    def test_stack_composes_wrappers_and_config(self):
        stack = DefenseStack([
            RandomWindowDefense(window_size=3),
            AlwaysPredictDefense(mode="history"),
            DelaySideEffectsDefense(),
        ])
        predictor = stack.wrap_predictor(LastValuePredictor())
        assert isinstance(predictor, AlwaysPredictWrapper)
        assert isinstance(predictor.inner, RandomWindowWrapper)
        config = stack.adjust_config(CoreConfig())
        assert config.delay_speculative_fills

    def test_stack_name(self):
        stack = DefenseStack([RandomWindowDefense(3), DelaySideEffectsDefense()])
        assert stack.name == "R[3]+D"
        assert DefenseStack([]).name == "none"

    def test_full_stack_has_all_three(self):
        stack = full_stack(window_size=9)
        assert len(stack) == 3
        config = stack.adjust_config(CoreConfig())
        assert config.delay_speculative_fills
