"""Unit tests for attack actions (Table I) and step specs."""

import pytest

from repro.core.actions import (
    MODIFY_ACTIONS,
    NONE_ACTION,
    R_KD,
    R_KI,
    S_KD,
    S_KI,
    S_SD1,
    S_SI2,
    TRAIN_ACTIONS,
    TRIGGER_ACTIONS,
    Action,
    Actor,
    Dimension,
    Knowledge,
    SecretFlavour,
)
from repro.core.steps import AccessCount, StepKind, StepSpec, modify, train, trigger
from repro.errors import ModelError


class TestAlphabet:
    def test_counts_match_paper(self):
        # 8 x 9 x 8 = 576 (Section V-A).
        assert len(TRAIN_ACTIONS) == 8
        assert len(MODIFY_ACTIONS) == 9
        assert len(TRIGGER_ACTIONS) == 8

    def test_symbols(self):
        assert S_KD.symbol == "S^KD"
        assert R_KI.symbol == "R^KI"
        assert S_SD1.symbol == "S^SD'"
        assert S_SI2.symbol == "S^SI''"
        assert NONE_ACTION.symbol == "—"

    def test_parse_roundtrip(self):
        for action in TRAIN_ACTIONS + (NONE_ACTION,):
            assert Action.parse(action.symbol) == action

    def test_parse_rejects_garbage(self):
        with pytest.raises(ModelError):
            Action.parse("X^YZ")

    def test_receiver_cannot_touch_secrets(self):
        # The threat model: only the sender has the secret.
        with pytest.raises(ModelError):
            Action(Actor.RECEIVER, Knowledge.SECRET, Dimension.DATA,
                   SecretFlavour.PRIME)

    def test_secret_needs_flavour(self):
        with pytest.raises(ModelError):
            Action(Actor.SENDER, Knowledge.SECRET, Dimension.DATA)

    def test_known_rejects_flavour(self):
        with pytest.raises(ModelError):
            Action(Actor.SENDER, Knowledge.KNOWN, Dimension.DATA,
                   SecretFlavour.PRIME)

    def test_predicates(self):
        assert S_SD1.is_secret and not S_SD1.is_known
        assert R_KD.is_known and not R_KD.is_secret
        assert NONE_ACTION.is_none
        assert not S_KI.is_none


class TestAccessCount:
    def test_resolution(self):
        assert AccessCount.CONFIDENCE.resolve(4) == 4
        assert AccessCount.CONFIDENCE_MINUS_ONE.resolve(4) == 3
        assert AccessCount.RETRAIN.resolve(4) == 5
        assert AccessCount.ONE.resolve(4) == 1
        assert AccessCount.ZERO.resolve(4) == 0

    def test_confidence_validation(self):
        with pytest.raises(ModelError):
            AccessCount.CONFIDENCE.resolve(0)


class TestStepSpec:
    def test_train_defaults_to_confidence(self):
        spec = train(S_SD1)
        assert spec.kind is StepKind.TRAIN
        assert spec.count is AccessCount.CONFIDENCE

    def test_trigger_is_single_access(self):
        spec = trigger(R_KD)
        assert spec.count is AccessCount.ONE
        with pytest.raises(ModelError):
            StepSpec(StepKind.TRIGGER, R_KD, AccessCount.CONFIDENCE)

    def test_empty_modify(self):
        spec = modify()
        assert spec.is_empty
        assert spec.count is AccessCount.ZERO
        assert "—" in spec.describe()

    def test_empty_only_for_modify(self):
        with pytest.raises(ModelError):
            StepSpec(StepKind.TRAIN, NONE_ACTION, AccessCount.ZERO)

    def test_nonempty_needs_accesses(self):
        with pytest.raises(ModelError):
            StepSpec(StepKind.MODIFY, S_KI, AccessCount.ZERO)

    def test_describe(self):
        text = train(S_KI).describe()
        assert "S^KI" in text
        assert "confidence" in text
