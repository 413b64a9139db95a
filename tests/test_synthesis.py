"""Tests for the attack synthesizer and model soundness."""

import pytest

from repro.core.actions import NONE_ACTION, R_KD, S_KD, S_KI, S_SD1, S_SD2, S_SI1
from repro.core.model import (
    Combo,
    TriggerOutcome,
    table_ii_combos,
)
from repro.core.synthesis import check_soundness, synthesize_trial


class TestSynthesizeTrial:
    def test_test_hit_mapped_correct(self):
        combo = Combo(S_SD1, NONE_ACTION, R_KD)
        result = synthesize_trial(combo, mapped=True)
        assert result.observed is TriggerOutcome.CORRECT
        assert result.sound

    def test_test_hit_unmapped_mispredicts(self):
        combo = Combo(S_SD1, NONE_ACTION, R_KD)
        result = synthesize_trial(combo, mapped=False)
        assert result.observed is TriggerOutcome.MISPREDICT
        assert result.sound

    def test_train_test_invalidate_gives_no_prediction(self):
        combo = Combo(S_KI, S_SI1, S_KI)
        result = synthesize_trial(
            combo, modify_count="one", mapped=True
        )
        assert result.observed is TriggerOutcome.NO_PREDICTION
        assert result.sound

    def test_outcome_latency_ordering(self):
        # correct < no-prediction < mispredict, end to end.
        combo = Combo(S_KI, S_SI1, S_KI)
        correct = synthesize_trial(combo, mapped=False)
        nopred = synthesize_trial(combo, modify_count="one", mapped=True)
        mispredict = synthesize_trial(
            combo, modify_count="retrain", mapped=True
        )
        assert correct.observed is TriggerOutcome.CORRECT
        assert nopred.observed is TriggerOutcome.NO_PREDICTION
        assert mispredict.observed is TriggerOutcome.MISPREDICT
        assert (
            correct.trigger_latency
            <= nopred.trigger_latency
            <= mispredict.trigger_latency
        )


class TestSoundness:
    @pytest.mark.parametrize(
        "combo,category",
        table_ii_combos(),
        ids=[combo.symbol for combo, _ in table_ii_combos()],
    )
    def test_every_table_ii_combo_is_sound(self, combo, category):
        results = check_soundness(combo)
        for key, result in results.items():
            assert result.sound, (
                f"{combo.symbol} {key}: observed {result.observed.value}, "
                f"model predicted {result.predicted.value}"
            )

    def test_invalid_combo_is_also_modelled_faithfully(self):
        # (K^I, —, S^SI'): the model excludes it (rule 9) because the
        # outcome pair is {mispredict, no-prediction}; the simulator
        # must actually produce that pair.
        combo = Combo(S_KI, NONE_ACTION, S_SI1)
        mapped = synthesize_trial(combo, mapped=True)
        unmapped = synthesize_trial(combo, mapped=False)
        assert mapped.sound and unmapped.sound
        assert {mapped.observed, unmapped.observed} == {
            TriggerOutcome.MISPREDICT, TriggerOutcome.NO_PREDICTION
        }

    def test_mixed_dimension_combo_is_grounded_per_dimension(self):
        # One data flavour and one index flavour: each dimension asks
        # the vs-known question, so the mapped secret data equals the
        # known value the train step left confident.
        combo = Combo(S_KD, S_SI1, S_SD2)
        result = synthesize_trial(
            combo, modify_count="retrain", mapped=True
        )
        assert result.predicted is TriggerOutcome.CORRECT
        assert result.sound
