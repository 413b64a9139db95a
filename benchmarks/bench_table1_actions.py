"""Table I: the action alphabet of value-predictor attack steps."""

from repro.core.actions import MODIFY_ACTIONS, TRAIN_ACTIONS, TRIGGER_ACTIONS
from repro.harness import render_table1


def test_table1_action_alphabet():
    text = render_table1()
    print("\n" + text)
    # The paper's counting: 8 x 9 x 8 = 576 combinations.
    assert len(TRAIN_ACTIONS) == 8
    assert len(MODIFY_ACTIONS) == 9
    assert len(TRIGGER_ACTIONS) == 8
    assert "576" in text
