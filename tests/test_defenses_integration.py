"""Integration tests: defenses vs. attacks on the full simulator.

Reproduces the Section VI-B claims at reduced trial counts:
D-type closes persistent channels (only), R-type washes out
value-signals, A-type(fixed) equalises Spill Over, and the
InvisiSpec-like baseline is bypassed by timing-window attacks.
"""

import pytest

from repro.core.attack import AttackConfig, AttackRunner
from repro.core.channels import ChannelType
from repro.core.variants import (
    FillUpAttack,
    SpillOverAttack,
    TestHitAttack,
    TrainTestAttack,
)
from repro.defenses import (
    AlwaysPredictDefense,
    DelaySideEffectsDefense,
    InvisiSpecDefense,
    RandomWindowDefense,
    full_stack,
)

N_RUNS = 40
SEED = 4


def pvalue(variant, channel, defense, n_runs_override=None, **kw):
    config = AttackConfig(
        n_runs=n_runs_override or N_RUNS, channel=channel, predictor="lvp",
        defense=defense, seed=SEED, **kw
    )
    return AttackRunner(variant, config).run_experiment().pvalue


class TestDType:
    @pytest.mark.parametrize("variant", [
        TrainTestAttack(), TestHitAttack(), FillUpAttack()
    ], ids=lambda v: v.name)
    def test_dtype_blocks_persistent(self, variant):
        assert pvalue(
            variant, ChannelType.PERSISTENT, DelaySideEffectsDefense()
        ) >= 0.05

    def test_dtype_does_not_block_timing_window(self):
        # "can only be used for preventing value predictor attacks
        # based on persistent channels" (Section VI-A).
        assert pvalue(
            TrainTestAttack(), ChannelType.TIMING_WINDOW,
            DelaySideEffectsDefense(),
        ) < 0.05


class TestRType:
    def test_large_window_blocks_train_test(self):
        assert pvalue(
            TrainTestAttack(), ChannelType.TIMING_WINDOW,
            RandomWindowDefense(window_size=6),
        ) >= 0.05

    def test_window_one_is_no_defense(self):
        assert pvalue(
            TrainTestAttack(), ChannelType.TIMING_WINDOW,
            RandomWindowDefense(window_size=1),
        ) < 0.05

    def test_test_hit_needs_larger_window(self):
        # Section VI-B: Test + Hit survives windows that stop
        # Train + Test ("a smaller window size ... partial security").
        # (Window 2 keeps a 1/2 correct-prediction signal that remains
        # visible at this reduced trial count; the full S-sweep runs in
        # benchmarks/bench_defense_windows.py at the paper's n=100.)
        small_window = pvalue(
            TestHitAttack(), ChannelType.TIMING_WINDOW,
            RandomWindowDefense(window_size=2), n_runs_override=60,
        )
        assert small_window < 0.05
        large_window = pvalue(
            TestHitAttack(), ChannelType.TIMING_WINDOW,
            RandomWindowDefense(window_size=12),
        )
        assert large_window >= 0.05


class TestAType:
    def test_fixed_mode_blocks_spill_over(self):
        assert pvalue(
            SpillOverAttack(), ChannelType.TIMING_WINDOW,
            AlwaysPredictDefense(mode="fixed"),
        ) >= 0.05

    def test_history_mode_converts_signal_but_still_leaks(self):
        # Reproduction finding: A-type with a history fallback removes
        # the no-prediction timing but creates a mispredict-vs-correct
        # signal; only the fixed mode fully equalises Spill Over.
        assert pvalue(
            SpillOverAttack(), ChannelType.TIMING_WINDOW,
            AlwaysPredictDefense(mode="history"),
        ) < 0.05


class TestInvisiSpec:
    def test_timing_window_bypasses_invisispec(self):
        # Section VI: existing transient-execution defenses "are not
        # effective against our new attacks".
        assert pvalue(
            TestHitAttack(), ChannelType.TIMING_WINDOW, InvisiSpecDefense()
        ) < 0.05

    def test_train_test_timing_bypasses_invisispec(self):
        assert pvalue(
            TrainTestAttack(), ChannelType.TIMING_WINDOW, InvisiSpecDefense()
        ) < 0.05


class TestFullStack:
    @pytest.mark.parametrize("variant,channel", [
        (TrainTestAttack(), ChannelType.TIMING_WINDOW),
        (TrainTestAttack(), ChannelType.PERSISTENT),
        (TestHitAttack(), ChannelType.TIMING_WINDOW),
        (TestHitAttack(), ChannelType.PERSISTENT),
        (SpillOverAttack(), ChannelType.TIMING_WINDOW),
        (FillUpAttack(), ChannelType.TIMING_WINDOW),
        (FillUpAttack(), ChannelType.PERSISTENT),
    ], ids=lambda x: getattr(x, "name", getattr(x, "value", str(x))))
    def test_combined_defenses_block_everything(self, variant, channel):
        # "When all the A-type, D-type, and R-type defenses are
        # combined, all attacks we have considered can be defended."
        stack = full_stack(window_size=12, a_mode="fixed")
        assert pvalue(variant, channel, stack) >= 0.05
