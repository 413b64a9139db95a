"""Figure 2: the taxonomy of timing-window channels.

Checks that the model-derived signal classes of our attacks populate
Figure 2 exactly: Train + Test realises the classic misprediction-vs-
correct class *and* the paper's new no-prediction-vs-correct class,
Spill Over realises the new class, and no attack occupies the
no-prediction-vs-incorrect class ("no known examples").
"""

from repro.core.model import AttackCategory, effective_attacks
from repro.core.taxonomy import (
    TimingWindowClass,
    classes_of_category,
    classify_pair,
    novel_classes,
    render_figure2,
)


def _taxonomy_map():
    return {
        category: classes_of_category(category)
        for category in AttackCategory
    }


def test_figure2_taxonomy():
    taxonomy = _taxonomy_map()
    print("\n" + render_figure2())
    for category, classes in taxonomy.items():
        print(f"  {category.value:14s} -> "
              + ", ".join(c.value for c in classes))

    # The paper's novel class exists and is realised by our attacks.
    assert novel_classes() == [TimingWindowClass.NOPRED_VS_CORRECT]
    assert TimingWindowClass.NOPRED_VS_CORRECT in taxonomy[
        AttackCategory.SPILL_OVER
    ]
    assert TimingWindowClass.NOPRED_VS_CORRECT in taxonomy[
        AttackCategory.TRAIN_TEST
    ]
    # BranchScope-class signals exist too.
    assert TimingWindowClass.MISPREDICT_VS_CORRECT in taxonomy[
        AttackCategory.TEST_HIT
    ]
    # And the "no known examples" class stays empty across Table II.
    for classification in effective_attacks():
        for pair in classification.outcome_pairs:
            assert classify_pair(*pair) is not (
                TimingWindowClass.NOPRED_VS_MISPREDICT
            )
