"""Tests for the 576-combination attack model (Section V, Table II)."""

import pytest

from repro.core.actions import (
    NONE_ACTION,
    R_KD,
    R_KI,
    S_KD,
    S_KI,
    S_SD1,
    S_SD2,
    S_SI1,
    S_SI2,
)
from repro.core.model import (
    AttackCategory,
    Combo,
    TriggerOutcome,
    Verdict,
    all_combos,
    attacks_by_category,
    _count_value,
    canonicalize,
    classify,
    classify_all,
    count_choices,
    effective_attacks,
    parse_combo,
    table_ii_combos,
    verdict_summary,
)
from repro.errors import ModelError


class TestEnumeration:
    def test_576_combinations(self):
        assert len(all_combos()) == 576

    def test_every_combo_classified(self):
        assert len(classify_all()) == 576

    def test_verdict_partition(self):
        summary = verdict_summary()
        assert sum(summary.values()) == 576
        assert summary[Verdict.EFFECTIVE] == 12


class TestTableII:
    def test_exactly_twelve_effective_attacks(self):
        assert len(effective_attacks()) == 12

    def test_matches_table_ii_exactly(self):
        expected = {
            (combo.symbol, category) for combo, category in table_ii_combos()
        }
        actual = {
            (c.combo.symbol, c.category) for c in effective_attacks()
        }
        assert actual == expected

    def test_category_counts(self):
        grouped = attacks_by_category()
        assert len(grouped[AttackCategory.TRAIN_TEST]) == 4
        assert len(grouped[AttackCategory.MODIFY_TEST]) == 2
        assert len(grouped[AttackCategory.TRAIN_HIT]) == 2
        assert len(grouped[AttackCategory.TEST_HIT]) == 2
        assert len(grouped[AttackCategory.SPILL_OVER]) == 1
        assert len(grouped[AttackCategory.FILL_UP]) == 1

    def test_spill_over_has_no_prediction_signal(self):
        # Spill Over realises the paper's novel correct-vs-no-prediction
        # timing class.
        spill = attacks_by_category()[AttackCategory.SPILL_OVER][0]
        outcomes = {frozenset(pair) for pair in spill.outcome_pairs}
        assert frozenset(
            {TriggerOutcome.CORRECT, TriggerOutcome.NO_PREDICTION}
        ) in outcomes


class TestRules:
    def test_rule1_known_only_invalid(self):
        result = classify(Combo(S_KD, NONE_ACTION, R_KD))
        assert result.verdict is Verdict.INVALID
        assert "rule 1" in result.reason

    def test_rule2_mixed_dimensions_invalid(self):
        result = classify(Combo(S_KI, NONE_ACTION, S_SD1))
        assert result.verdict is Verdict.INVALID
        assert "rule 2" in result.reason

    def test_rule3_index_flavour_pair_reduces_to_data(self):
        result = classify(Combo(S_SI1, NONE_ACTION, S_SI2))
        assert result.verdict is Verdict.REDUCIBLE
        assert "rule 3" in result.reason
        assert "D" in result.reduces_to

    def test_rule4_flavour_relabelling(self):
        result = classify(Combo(S_SD2, NONE_ACTION, S_KD))
        assert result.verdict is Verdict.REDUCIBLE
        assert "rule 4" in result.reason
        assert result.reduces_to == "(S^SD', —, S^KD)"

    def test_rule5_modify_merges_into_train(self):
        result = classify(Combo(S_SD1, S_SD1, S_KD))
        assert result.verdict is Verdict.REDUCIBLE
        assert "rule 5" in result.reason

    def test_rule5_cross_actor_known_merge(self):
        # Known objects are shared across actors (shared library).
        result = classify(Combo(S_KD, R_KD, S_SD1))
        assert result.verdict is Verdict.REDUCIBLE
        assert "rule 5" in result.reason

    def test_rule6_modify_merges_into_trigger(self):
        result = classify(Combo(S_KD, S_SD1, S_SD1))
        assert result.verdict is Verdict.REDUCIBLE
        assert "rule 6" in result.reason

    def test_rule7_single_object_degenerate(self):
        result = classify(Combo(S_SD1, NONE_ACTION, S_SD1))
        assert result.verdict is Verdict.INVALID
        assert "rule 7" in result.reason

    def test_rule8_known_train_with_secret_modify_reduces(self):
        # The "data Train+Test" shape reduces to Test + Hit.
        result = classify(Combo(S_KD, S_SD1, S_KD))
        assert result.verdict is Verdict.REDUCIBLE
        assert "rule 8" in result.reason

    def test_rule8_known_modify_reduces(self):
        # The "data Modify+Test" shape reduces to Train + Hit.
        result = classify(Combo(S_SD1, S_KD, S_SD1))
        assert result.verdict is Verdict.REDUCIBLE
        assert "rule 8" in result.reason

    def test_rule8_does_not_apply_to_index_dimension(self):
        # Index-dimension Train + Test survives: the collision itself
        # is the secret.
        result = classify(Combo(R_KI, S_SI1, R_KI))
        assert result.verdict is Verdict.EFFECTIVE
        assert result.category is AttackCategory.TRAIN_TEST

    def test_rule9_nopred_vs_mispredict_excluded(self):
        # (K^I, —, S^SI'): mapped -> mispredict, unmapped -> no
        # prediction; Figure 2's "no known examples" class.
        result = classify(Combo(S_KI, NONE_ACTION, S_SI1))
        assert result.verdict is Verdict.INVALID
        assert "rule 9" in result.reason


class TestOutcomePairs:
    def test_train_test_supports_both_flavours(self):
        # Retrain-modify gives mispredict-vs-correct; invalidate-modify
        # gives no-prediction-vs-correct (Section IV-A).
        result = classify(Combo(R_KI, S_SI1, R_KI))
        pairs = {frozenset(pair) for pair in result.outcome_pairs}
        assert frozenset(
            {TriggerOutcome.MISPREDICT, TriggerOutcome.CORRECT}
        ) in pairs
        assert frozenset(
            {TriggerOutcome.NO_PREDICTION, TriggerOutcome.CORRECT}
        ) in pairs

    def test_fill_up_is_mispredict_vs_correct(self):
        result = classify(Combo(S_SD1, NONE_ACTION, S_SD2))
        assert all(
            frozenset(pair)
            == frozenset({TriggerOutcome.MISPREDICT, TriggerOutcome.CORRECT})
            for pair in result.outcome_pairs
        )


class TestCanonicalisation:
    def test_double_prime_only_becomes_prime(self):
        combo = Combo(S_SD2, NONE_ACTION, S_KD)
        canonical = canonicalize(combo)
        assert canonical.train.symbol == "S^SD'"

    def test_swapped_flavours_normalise(self):
        combo = Combo(S_SD2, S_SD1, S_SD2)
        canonical = canonicalize(combo)
        assert canonical.train.symbol == "S^SD'"
        assert canonical.modify.symbol == "S^SD''"
        assert canonical.trigger.symbol == "S^SD'"

    def test_canonical_form_is_fixed_point(self):
        for combo, _ in table_ii_combos():
            assert canonicalize(combo) == combo

    def test_flavours_are_relabelled_per_dimension(self):
        # D'/D'' and I'/I'' are separate alphabets: a mixed combo's
        # first index flavour is I' even after a data flavour D'.
        combo = Combo(S_SD1, S_SI2, S_KD)
        assert canonicalize(combo) == Combo(S_SD1, S_SI1, S_KD)


class TestComboSymbols:
    def test_parse_rejects_garbage(self):
        for symbol in ("S^KD, —, S^SD'", "(S^KD, S^SD')", "(S^KD, —, X^Y)"):
            with pytest.raises(ModelError):
                parse_combo(symbol)


class TestCountVocabulary:
    def test_count_values(self):
        assert _count_value("confidence", 4) == 4
        assert _count_value("confidence-1", 4) == 3
        assert _count_value("retrain", 4) == 5
        assert _count_value("one", 4) == 1

    def test_unknown_count_is_rejected(self):
        with pytest.raises(ModelError):
            _count_value("confidence+1", 4)

    def test_count_choices_are_train_major(self):
        assert count_choices(Combo(R_KI, S_SI1, R_KI)) == (
            ("confidence", "retrain"), ("confidence", "one"),
            ("confidence-1", "retrain"), ("confidence-1", "one"),
        )


class TestComboValidation:
    def test_train_cannot_be_empty(self):
        with pytest.raises(ModelError):
            Combo(NONE_ACTION, NONE_ACTION, S_KD)

    def test_trigger_cannot_be_empty(self):
        with pytest.raises(ModelError):
            Combo(S_KD, NONE_ACTION, NONE_ACTION)

    def test_actions_property_skips_empty_modify(self):
        combo = Combo(S_KD, NONE_ACTION, S_SD1)
        assert len(combo.actions) == 2
