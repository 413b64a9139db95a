"""Methodology ablation: statistical power of the paper's evaluation.

The paper fixes 100 runs per hypothesis for its t-tests.  This bench
asks how many runs each attack actually needs: for growing trial
counts, the median p-value (over three seeds) is computed per attack,
and the smallest sufficient count is reported.  The result justifies
the paper's choice — 100 runs detects every category with a wide
margin — and quantifies how loud each attack's signal is.
"""

import pytest

import statistics

from repro.core.attack import AttackConfig, AttackRunner
from repro.core.channels import ChannelType
from repro.core.variants import ALL_VARIANTS

pytestmark = pytest.mark.slow  # full regeneration; excluded from the quick CI pass

TRIAL_COUNTS = (5, 10, 20, 50, 100)
SEEDS = (1, 2, 3)


def _median_pvalue(variant, n_runs):
    pvalues = []
    for seed in SEEDS:
        config = AttackConfig(
            n_runs=n_runs, channel=ChannelType.TIMING_WINDOW,
            predictor="lvp", seed=seed,
        )
        pvalues.append(
            AttackRunner(variant, config).run_experiment().pvalue
        )
    return statistics.median(pvalues)


def _evaluate():
    table = {}
    for variant in ALL_VARIANTS:
        row = {}
        for n_runs in TRIAL_COUNTS:
            row[n_runs] = _median_pvalue(variant, n_runs)
        sufficient = next(
            (n for n in TRIAL_COUNTS if row[n] < 0.05), None
        )
        table[variant.name] = (row, sufficient)
    return table


def test_statistical_power():
    table = _evaluate()
    print("\nMedian p-value vs. runs per hypothesis "
          "(timing-window, LVP, 3 seeds):")
    header = "".join(f"{n:>9d}" for n in TRIAL_COUNTS)
    print(f"{'Attack':14s}{header}  sufficient n")
    for name, (row, sufficient) in table.items():
        cells = "".join(f"{row[n]:9.4f}" for n in TRIAL_COUNTS)
        print(f"{name:14s}{cells}  {sufficient}")

    for name, (row, sufficient) in table.items():
        # The paper's 100 runs detect every category ...
        assert row[100] < 0.05, f"{name} undetected at n=100"
        # ... with margin: far fewer already suffice.
        assert sufficient is not None and sufficient <= 50, name
