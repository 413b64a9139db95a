"""Section VI: existing transient-execution defenses are bypassed.

"Security defenses such as InvisiSpec can prevent existing transient
execution attacks, but have not considered value prediction in
particular, and are not effective against our new attacks."

With an InvisiSpec-like defense (every load's cache fill deferred to
commit), the classic Spectre-style *persistent* leak of a squashed
transient load disappears — but every timing-window value-predictor
attack still works, because it measures execution latency, not cache
state.
"""

import pytest

from repro.core.attack import AttackConfig, AttackRunner
from repro.core.channels import ChannelType
from repro.core.variants import ALL_VARIANTS, TestHitAttack
from repro.defenses import InvisiSpecDefense

pytestmark = pytest.mark.slow  # full regeneration; excluded from the quick CI pass

N_RUNS = 60
SEED = 3


def _evaluate():
    rows = []
    for variant in ALL_VARIANTS:
        config = AttackConfig(
            n_runs=N_RUNS, channel=ChannelType.TIMING_WINDOW,
            predictor="lvp", defense=InvisiSpecDefense(), seed=SEED,
        )
        result = AttackRunner(variant, config).run_experiment()
        rows.append((variant.name, "timing-window", result.pvalue))
    persistent = AttackRunner(
        TestHitAttack(),
        AttackConfig(n_runs=N_RUNS, channel=ChannelType.PERSISTENT,
                     predictor="lvp", defense=InvisiSpecDefense(), seed=SEED),
    ).run_experiment()
    rows.append((TestHitAttack().name, "persistent", persistent.pvalue))
    return rows


def test_invisispec_bypass():
    rows = _evaluate()
    print("\nAttacks under an InvisiSpec-like defense:")
    for attack, channel, pvalue in rows:
        verdict = "BYPASSED" if pvalue < 0.05 else "blocked"
        print(f"  {attack:14s} {channel:14s} p={pvalue:.4f} -> {verdict}")

    # Every timing-window value-predictor attack bypasses InvisiSpec.
    for attack, channel, pvalue in rows:
        if channel == "timing-window":
            assert pvalue < 0.05, f"{attack}: p={pvalue:.4f}"
    # The cache-channel variant is the one thing it does stop.
    assert rows[-1][2] >= 0.05
