"""Tests for the remaining harness experiment drivers."""

from repro.core.channels import ChannelType
from repro.core.variants import SpillOverAttack, TrainTestAttack
from repro.defenses import AlwaysPredictDefense, DelaySideEffectsDefense
from repro.harness.experiment import (
    RSA_DRAM,
    defense_matrix,
    figure8_panels,
    predictor_comparison,
)


class TestFigure8Driver:
    def test_four_panels_with_expected_shape(self):
        panels = figure8_panels(n_runs=25, seed=0)
        assert len(panels) == 4
        novp_tw, lvp_tw, novp_pc, lvp_pc = [result for _, result in panels]
        assert not novp_tw.attack_succeeds
        assert lvp_tw.attack_succeeds
        assert not novp_pc.attack_succeeds
        assert lvp_pc.attack_succeeds

    def test_direction_mapped_faster(self):
        panels = figure8_panels(n_runs=25, seed=0)
        _, lvp_tw = panels[1]
        assert (
            lvp_tw.comparison.mapped.mean < lvp_tw.comparison.unmapped.mean
        )


class TestPredictorComparison:
    def test_both_predictors_leak(self):
        results = predictor_comparison(n_runs=30, seed=0)
        assert set(results) == {"lvp", "vtage"}
        for predictor, attacks in results.items():
            for attack, pvalue in attacks.items():
                assert pvalue < 0.05, f"{attack} on {predictor}"

    def test_oracle_mode(self):
        results = predictor_comparison(
            n_runs=20, seed=0, predictors=("lvp",), use_oracle=True
        )
        assert all(p < 0.05 for p in results["lvp"].values())


class TestDefenseMatrixDriver:
    def test_rows_carry_labels_and_pvalues(self):
        rows = defense_matrix(
            [
                (SpillOverAttack(), ChannelType.TIMING_WINDOW,
                 AlwaysPredictDefense(mode="fixed"), "A[fixed]"),
                (TrainTestAttack(), ChannelType.PERSISTENT,
                 DelaySideEffectsDefense(), "D"),
            ],
            n_runs=20, seed=3,
        )
        assert len(rows) == 2
        assert rows[0]["defense"] == "A[fixed]"
        assert 0.0 <= float(rows[0]["pvalue"]) <= 1.0

    def test_undefended_row(self):
        rows = defense_matrix(
            [(TrainTestAttack(), ChannelType.TIMING_WINDOW, None, "none")],
            n_runs=30, seed=3,
        )
        assert float(rows[0]["pvalue"]) < 0.05


class TestRsaDramConfig:
    def test_moderate_noise(self):
        # Wide enough that success is realistically below 100 %, narrow
        # enough that the Figure 7 bands stay separable.
        assert 20 < RSA_DRAM.jitter < 100
