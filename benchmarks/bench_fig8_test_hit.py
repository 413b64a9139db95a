"""Figure 8: Test + Hit timing distributions, all four panels.

Paper values: pvalue = 0.2630 (TW no VP), 0.0072 (TW LVP), 0.6111
(persistent no VP), 0.0000 (persistent LVP).
"""

import pytest

from repro.harness import figure8_panels
from repro.harness.parallel import _figure_text

pytestmark = pytest.mark.slow  # full regeneration; excluded from the quick CI pass

PAPER_PVALUES = {
    "(1)": 0.2630, "(2)": 0.0072, "(3)": 0.6111, "(4)": 0.0000,
}


def test_figure8_test_hit():
    panels = figure8_panels(n_runs=100, seed=0)
    print("\n" + _figure_text("fig8", panels))
    print("\npaper p-values for comparison:", PAPER_PVALUES)

    (_, tw_novp), (_, tw_lvp), (_, pc_novp), (_, pc_lvp) = panels
    assert not tw_novp.attack_succeeds
    assert not pc_novp.attack_succeeds
    assert tw_lvp.attack_succeeds
    assert pc_lvp.attack_succeeds
    # Direction: mapped data = correct prediction = faster trigger.
    assert tw_lvp.comparison.mapped.mean < tw_lvp.comparison.unmapped.mean
    assert pc_lvp.comparison.mapped.mean < pc_lvp.comparison.unmapped.mean - 100
