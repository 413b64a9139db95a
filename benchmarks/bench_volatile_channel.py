"""Extension: the volatile (port-contention) channel.

The paper's Section V-A-4 names volatile channels (citing
SMotherSpectre) as the third encode/decode family and states that
Train + Test, Test + Hit and Fill Up "can use a persistent or volatile
channel"; Table III evaluates only the other two.  This bench closes
that gap on the simulator's SMT mode: the attack's trigger runs
concurrently with an observer context whose multiplier-port-bound
window senses the trigger's (possibly replayed) transient multiply
burst.
"""

import pytest

from repro.core.attack import AttackConfig, AttackRunner
from repro.core.channels import ChannelType
from repro.core.variants import FillUpAttack, TestHitAttack, TrainTestAttack

pytestmark = pytest.mark.slow  # full regeneration; excluded from the quick CI pass

N_RUNS = 60
SEED = 2


def _evaluate():
    rows = []
    for variant in (TrainTestAttack(), TestHitAttack(), FillUpAttack()):
        for predictor in ("none", "lvp"):
            config = AttackConfig(
                n_runs=N_RUNS, channel=ChannelType.VOLATILE,
                predictor=predictor, seed=SEED,
            )
            result = AttackRunner(variant, config).run_experiment()
            rows.append((
                variant.name, predictor, result.pvalue,
                result.comparison.mapped.mean,
                result.comparison.unmapped.mean,
            ))
    return rows


def test_volatile_channel():
    rows = _evaluate()
    print("\nVolatile (port-contention) channel:")
    print(f"{'Attack':14s} {'VP':5s} {'pvalue':>9s} {'mapped':>8s} {'unmapped':>9s}")
    for attack, predictor, pvalue, mapped, unmapped in rows:
        print(f"{attack:14s} {predictor:5s} {pvalue:9.4f} "
              f"{mapped:8.1f} {unmapped:9.1f}")

    for attack, predictor, pvalue, mapped, unmapped in rows:
        if predictor == "lvp":
            assert pvalue < 0.05, f"{attack} volatile must leak"
            # The signal is roughly one replayed 64-multiply burst.
            assert 30 < abs(mapped - unmapped) < 110
        else:
            assert pvalue >= 0.05, f"{attack} must not leak without a VP"
