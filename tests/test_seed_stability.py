"""Seed-robustness of the headline results.

The paper's claims should not hinge on a lucky seed.  These meta-tests
re-run the core shape checks across several seeds at a reduced trial
count.  The statistics are respected: the *attack* signal is enormous
and must appear at every seed, while the no-VP control is a 5 %-level
t-test and is therefore allowed its nominal false-positive rate —
what must never happen is a majority of control seeds "leaking".
"""

from repro.core.attack import AttackConfig, AttackRunner
from repro.core.channels import ChannelType
from repro.core.variants import TestHitAttack, TrainTestAttack

SEEDS = (11, 22, 33, 44, 55)
N_RUNS = 60


def _pvalue(variant, predictor, seed, channel=ChannelType.TIMING_WINDOW):
    return AttackRunner(
        variant,
        AttackConfig(n_runs=N_RUNS, predictor=predictor, seed=seed,
                     channel=channel),
    ).run_experiment().pvalue


class TestTrainTestAcrossSeeds:
    def test_attack_signal_present_at_every_seed(self):
        for seed in SEEDS:
            assert _pvalue(TrainTestAttack(), "lvp", seed) < 0.05, seed

    def test_control_false_positive_rate_is_nominal(self):
        false_positives = sum(
            1 for seed in SEEDS
            if _pvalue(TrainTestAttack(), "none", seed) < 0.05
        )
        # 5 draws at alpha=0.05: more than one rejection indicates a
        # real artifact rather than test-level noise.
        assert false_positives <= 1


class TestPersistentChannelAcrossSeeds:
    def test_categorical_separation_at_every_seed(self):
        for seed in SEEDS:
            result = AttackRunner(
                TestHitAttack(),
                AttackConfig(n_runs=N_RUNS, predictor="lvp", seed=seed,
                             channel=ChannelType.PERSISTENT),
            ).run_experiment()
            assert result.attack_succeeds, seed
            # Hit vs miss is categorical, not marginal.
            assert result.comparison.mapped.mean < 60, seed
            assert result.comparison.unmapped.mean > 150, seed

    def test_control_never_separates_categorically(self):
        for seed in SEEDS:
            result = AttackRunner(
                TestHitAttack(),
                AttackConfig(n_runs=N_RUNS, predictor="none", seed=seed,
                             channel=ChannelType.PERSISTENT),
            ).run_experiment()
            # Both hypotheses are misses without a predictor.
            assert result.comparison.mapped.mean > 150, seed
