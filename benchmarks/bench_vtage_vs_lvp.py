"""Section IV-D3: predictor type does not stop the attacks.

"For both predictor types, timing distributions between mapped and
unmapped cases are significantly different to leak data."  Evaluates
Train + Test and Test + Hit on the LVP, on a real VTAGE, and on the
paper's oracle configuration (predictions restricted to the target
load), plus a stride predictor as an extension.
"""

import pytest

from repro.core.attack import AttackConfig, AttackRunner
from repro.core.channels import ChannelType
from repro.core.variants import TestHitAttack, TrainTestAttack
from repro.vp.bebop import BebopPredictor
from repro.vp.stride import StridePredictor

pytestmark = pytest.mark.slow  # full regeneration; excluded from the quick CI pass

N_RUNS = 100
SEED = 0


def _evaluate():
    rows = []
    variants = (TrainTestAttack(), TestHitAttack())
    for predictor, use_oracle, label in (
        ("lvp", False, "LVP"),
        ("vtage", False, "VTAGE"),
        ("vtage", True, "oracle VTAGE (paper setup)"),
        # A stride confirmation needs two observations, so a train
        # loop of `confidence` accesses yields `confidence - 1`
        # confirmations; the threshold is set accordingly.
        (lambda c: StridePredictor(confidence_threshold=c - 1), False,
         "stride (extension)"),
        (lambda c: BebopPredictor(confidence_threshold=c), False,
         "BeBoP block-based (extension)"),
    ):
        for variant in variants:
            config = AttackConfig(
                n_runs=N_RUNS, channel=ChannelType.TIMING_WINDOW,
                predictor=predictor, use_oracle=use_oracle, seed=SEED,
            )
            result = AttackRunner(variant, config).run_experiment()
            rows.append((label, variant.name, result.pvalue))
    return rows


def test_predictor_type_influence():
    rows = _evaluate()
    print("\nPredictor-type influence (timing-window channel):")
    print(f"{'Predictor':28s} {'Attack':14s} {'pvalue':>9s}")
    for label, attack, pvalue in rows:
        print(f"{label:28s} {attack:14s} {pvalue:9.4f}")
    # Every predictor type leaks for both attacks.
    for label, attack, pvalue in rows:
        assert pvalue < 0.05, f"{attack} on {label}: p={pvalue:.4f}"
