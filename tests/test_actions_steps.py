"""Unit tests for attack actions (Table I)."""

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
from repro.core.model import Combo, _count_value, count_choices
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


class TestStepSpec:
    """The step rules a combo's train/modify/trigger steps obey."""

    def test_empty_only_for_modify(self):
        # The modify step may be empty; the train and trigger steps not.
        assert Combo(S_KD, NONE_ACTION, S_SD1).modify.is_none
        with pytest.raises(ModelError):
            Combo(NONE_ACTION, S_KI, S_KD)
        with pytest.raises(ModelError):
            Combo(S_KD, S_KI, NONE_ACTION)

    def test_nonempty_needs_accesses(self):
        # Every count a non-empty modify step can take makes an access.
        combo = Combo(S_SD1, S_KI, S_KD)
        for confidence in range(1, 9):
            for _, modify_count in count_choices(combo):
                assert _count_value(modify_count, confidence) >= 1
