"""Table II: enumerate 576 combinations, reduce to 12 attacks."""

from repro.core.model import (
    AttackCategory,
    Verdict,
    classify_all,
    table_ii_combos,
)
from repro.harness import render_table2


def test_table2_model_enumeration():
    classifications = classify_all()
    assert len(classifications) == 576

    effective = [c for c in classifications if c.verdict is Verdict.EFFECTIVE]
    print("\n" + render_table2(effective))

    # The paper: "there are exactly 12 effective attacks".
    assert len(effective) == 12
    expected = {(c.symbol, cat) for c, cat in table_ii_combos()}
    actual = {(c.combo.symbol, c.category) for c in effective}
    assert actual == expected

    by_category = {}
    for classification in effective:
        by_category.setdefault(classification.category, 0)
        by_category[classification.category] += 1
    assert by_category[AttackCategory.TRAIN_TEST] == 4
    assert by_category[AttackCategory.MODIFY_TEST] == 2
    assert by_category[AttackCategory.TRAIN_HIT] == 2
    assert by_category[AttackCategory.TEST_HIT] == 2
    assert by_category[AttackCategory.SPILL_OVER] == 1
    assert by_category[AttackCategory.FILL_UP] == 1
