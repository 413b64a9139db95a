"""Figure 5: Train + Test timing distributions, all four panels.

Paper values: pvalue = 0.8169 (TW no VP), 0.0420 (TW LVP), 0.7521
(persistent no VP), 0.0000 (persistent LVP).  The reproduction targets
the *shape*: no-VP panels above 0.05, LVP panels below.
"""

from repro.harness import figure5_panels
from repro.harness.parallel import _figure_text

PAPER_PVALUES = {
    "(1)": 0.8169, "(2)": 0.0420, "(3)": 0.7521, "(4)": 0.0000,
}


def test_figure5_train_test():
    panels = figure5_panels(n_runs=100, seed=0)
    print("\n" + _figure_text("fig5", panels))
    print("\npaper p-values for comparison:", PAPER_PVALUES)

    (_, tw_novp), (_, tw_lvp), (_, pc_novp), (_, pc_lvp) = panels
    # Without a value predictor the attack must not work ...
    assert not tw_novp.attack_succeeds
    assert not pc_novp.attack_succeeds
    # ... and with the (non-secure) LVP it must.
    assert tw_lvp.attack_succeeds
    assert pc_lvp.attack_succeeds
    # Direction: mapped (secret=1) means misprediction = slower trigger.
    assert tw_lvp.comparison.mapped.mean > tw_lvp.comparison.unmapped.mean
    # Persistent channel: mapped = cache hit on reload = much faster.
    assert pc_lvp.comparison.mapped.mean < pc_lvp.comparison.unmapped.mean - 100
