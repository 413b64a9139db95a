"""Composition semantics: defense wrapping vs. oracle targeting."""

from repro.core.attack import AttackConfig, AttackRunner
from repro.core.variants import TrainTestAttack
from repro.defenses import AlwaysPredictDefense, RandomWindowDefense
from repro.defenses.always_predict import AlwaysPredictWrapper
from repro.defenses.random_window import RandomWindowWrapper
from repro.vp.oracle import OracleTargetPredictor


class TestWrappingOrder:
    def _env(self, **config_kwargs):
        runner = AttackRunner(
            TrainTestAttack(), AttackConfig(n_runs=2, **config_kwargs)
        )
        return runner._build_env(trial_seed=1)

    def test_defense_wraps_inside_oracle(self):
        # The oracle models the experimental setup (which loads may be
        # predicted); defenses model the hardware.  The oracle must be
        # outermost so its targeting applies to the *defended*
        # predictor.
        env = self._env(
            use_oracle=True, defense=RandomWindowDefense(window_size=3)
        )
        assert isinstance(env.core.predictor, OracleTargetPredictor)
        assert isinstance(env.core.predictor.inner, RandomWindowWrapper)

    def test_stacked_defenses_wrap_in_order(self):
        from repro.defenses import DefenseStack
        env = self._env(defense=DefenseStack([
            RandomWindowDefense(window_size=3),
            AlwaysPredictDefense(mode="history"),
        ]))
        predictor = env.core.predictor
        assert isinstance(predictor, AlwaysPredictWrapper)
        assert isinstance(predictor.inner, RandomWindowWrapper)

    def test_no_defense_leaves_raw_predictor(self):
        from repro.vp.lvp import LastValuePredictor
        env = self._env()
        assert isinstance(env.core.predictor, LastValuePredictor)

    def test_oracle_targets_variant_trigger_pc(self):
        env = self._env(use_oracle=True)
        layout = env.layout
        assert layout.collide_pc in env.core.predictor.targets

    def test_defense_config_adjustment_applied(self):
        from repro.defenses import DelaySideEffectsDefense
        env = self._env(defense=DelaySideEffectsDefense())
        assert env.core.config.delay_speculative_fills
