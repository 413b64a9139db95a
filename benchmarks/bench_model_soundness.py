"""Soundness of the Section V attack model (the analysis the paper omits).

"Rule description and soundness analysis of the model are not included
due to limited space."  This bench supplies that analysis end to end:
every one of the 576 (train, modify, trigger) combinations is realized
as its :class:`~repro.core.synthesis.ComboAttack` (the programs the
hunt certifies and measures), executed on the cycle-level simulator
under every access-count choice and both secret hypotheses, and the
observed trigger outcome (correct / mispredict / no prediction) is
compared with the abstract evaluator's prediction.

The model is sound iff the two agree on all ~4.3k cases — which also
means Table II's 12 survivors, and only they, produce the claimed
observable signals in real (simulated) hardware.
"""

import pytest

from repro.core.model import all_combos
from repro.core.synthesis import check_soundness

pytestmark = pytest.mark.slow  # full regeneration; excluded from the quick CI pass


def _full_check():
    mismatches = []
    cases = 0
    for combo in all_combos():
        for key, result in check_soundness(combo).items():
            cases += 1
            if not result.sound:
                mismatches.append((combo.symbol, key, result))
    return cases, mismatches


def test_model_soundness_all_576_combos():
    cases, mismatches = _full_check()
    print(f"\nModel soundness: {cases} (combo, counts, hypothesis) cases "
          f"simulated; {len(mismatches)} disagree with the abstract model")
    for symbol, key, result in mismatches[:10]:
        print(f"  MISMATCH {symbol} {key}: observed "
              f"{result.observed.value}, predicted {result.predicted.value}")

    assert cases == 4352  # 576 combos x counts x 2 hypotheses
    assert not mismatches
