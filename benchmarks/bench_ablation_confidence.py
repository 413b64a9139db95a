"""Ablation: the VPS confidence threshold.

The paper treats ``confidence`` as a free parameter of the threat
model ("making confidence number of accesses, or other condition used
by the VPS").  This ablation sweeps it: the attacks stay effective at
every threshold — a higher confidence only raises the attacker's
training cost (more accesses per trial), it is not a defense.
"""

import pytest

from repro.core.attack import AttackConfig, AttackRunner
from repro.core.channels import ChannelType
from repro.core.variants import SpillOverAttack, TrainTestAttack

pytestmark = pytest.mark.slow  # full regeneration; excluded from the quick CI pass

N_RUNS = 60
SEED = 1


def _evaluate():
    rows = []
    for confidence in (1, 2, 4, 8):
        for variant in (TrainTestAttack(), SpillOverAttack()):
            config = AttackConfig(
                n_runs=N_RUNS, channel=ChannelType.TIMING_WINDOW,
                predictor="lvp", confidence=confidence, seed=SEED,
            )
            result = AttackRunner(variant, config).run_experiment()
            rows.append((
                confidence, variant.name, result.pvalue,
                result.mean_trial_cycles,
            ))
    return rows


def test_confidence_threshold_ablation():
    rows = _evaluate()
    print("\nConfidence-threshold ablation (timing-window, LVP):")
    print(f"{'conf':>5s} {'Attack':14s} {'pvalue':>9s} {'cycles/trial':>13s}")
    for confidence, attack, pvalue, cycles in rows:
        print(f"{confidence:5d} {attack:14s} {pvalue:9.4f} {cycles:13.0f}")

    # Effective at every threshold.
    for confidence, attack, pvalue, _ in rows:
        assert pvalue < 0.05, f"{attack} at confidence={confidence}"
    # Training cost grows with the threshold (same attack, more
    # accesses per trial).
    train_test = [(c, cyc) for c, a, _, cyc in rows if a == "Train + Test"]
    assert train_test[-1][1] > train_test[0][1]
