"""Section VI-B: which defense blocks which attack.

Reproduces the paper's per-defense claims:

* D-type closes persistent channels only;
* A-type (fixed) blocks Spill Over directly;
* R-type (large window) blocks the value-signal attacks;
* the combined A+D+R stack blocks everything.

One reproduction nuance is asserted explicitly: an A-type defense that
falls back to a *history* value converts Spill Over's no-prediction
signal into a misprediction signal instead of removing it — only the
fixed-value reading of the paper's A-type fully equalises the two
hypotheses.
"""

import pytest

from repro.core.attack import AttackConfig, AttackRunner
from repro.core.channels import ChannelType
from repro.core.variants import (
    FillUpAttack,
    ModifyTestAttack,
    SpillOverAttack,
    TestHitAttack,
    TrainHitAttack,
    TrainTestAttack,
)
from repro.defenses import (
    AlwaysPredictDefense,
    DelaySideEffectsDefense,
    RandomWindowDefense,
    full_stack,
)
from repro.harness import render_defense_matrix

pytestmark = pytest.mark.slow  # full regeneration; excluded from the quick CI pass

N_RUNS = 100
SEED = 3


def _evaluate():
    cases = [
        # (attack, channel, defense, label, expect_blocked)
        (TrainTestAttack(), ChannelType.PERSISTENT,
         DelaySideEffectsDefense(), "D-type", True),
        (TestHitAttack(), ChannelType.PERSISTENT,
         DelaySideEffectsDefense(), "D-type", True),
        (FillUpAttack(), ChannelType.PERSISTENT,
         DelaySideEffectsDefense(), "D-type", True),
        (TrainTestAttack(), ChannelType.TIMING_WINDOW,
         DelaySideEffectsDefense(), "D-type", False),
        (SpillOverAttack(), ChannelType.TIMING_WINDOW,
         AlwaysPredictDefense(mode="fixed"), "A-type[fixed]", True),
        (SpillOverAttack(), ChannelType.TIMING_WINDOW,
         AlwaysPredictDefense(mode="history"), "A-type[history]", False),
        (TrainTestAttack(), ChannelType.TIMING_WINDOW,
         RandomWindowDefense(window_size=6), "R-type[6]", True),
        (FillUpAttack(), ChannelType.TIMING_WINDOW,
         RandomWindowDefense(window_size=12), "R-type[12]", True),
        (ModifyTestAttack(), ChannelType.TIMING_WINDOW,
         RandomWindowDefense(window_size=12), "R-type[12]", True),
        (TrainHitAttack(), ChannelType.TIMING_WINDOW,
         full_stack(window_size=12, a_mode="fixed"), "A+D+R[12]", True),
        (TestHitAttack(), ChannelType.TIMING_WINDOW,
         full_stack(window_size=12, a_mode="fixed"), "A+D+R[12]", True),
        (TestHitAttack(), ChannelType.PERSISTENT,
         full_stack(window_size=12, a_mode="fixed"), "A+D+R[12]", True),
        (TrainTestAttack(), ChannelType.PERSISTENT,
         full_stack(window_size=12, a_mode="fixed"), "A+D+R[12]", True),
    ]
    rows = []
    for variant, channel, defense, label, expect_blocked in cases:
        config = AttackConfig(
            n_runs=N_RUNS, channel=channel, predictor="lvp",
            defense=defense, seed=SEED,
        )
        result = AttackRunner(variant, config).run_experiment()
        rows.append({
            "attack": variant.name,
            "channel": channel.value,
            "defense": label,
            "pvalue": result.pvalue,
            "expect_blocked": expect_blocked,
        })
    return rows


def test_defense_matrix():
    rows = _evaluate()
    print("\n" + render_defense_matrix(rows))
    for row in rows:
        blocked = row["pvalue"] >= 0.05
        assert blocked == row["expect_blocked"], (
            f"{row['attack']} / {row['channel']} under {row['defense']}: "
            f"p={row['pvalue']:.4f}, expected "
            f"{'blocked' if row['expect_blocked'] else 'leaking'}"
        )
