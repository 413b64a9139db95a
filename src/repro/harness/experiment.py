"""High-level experiment drivers, one per paper table/figure.

Every function here regenerates the data behind one table or figure
of the paper; the benchmark suite and the examples are thin wrappers
over these.  Runs are deterministic for a given seed.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.attack import AttackConfig, AttackRunner, ExperimentResult
from repro.core.channels import ChannelType
from repro.core.model import AttackCategory
from repro.core.variants import (
    AttackVariant,
    TestHitAttack,
    TrainTestAttack,
)
from repro.crypto.leak import RsaAttackResult
from repro.defenses.base import Defense
from repro.defenses.random_window import RandomWindowDefense
from repro.errors import HarnessError
from repro.memory.memsys import DramConfig
from repro.stats.ttest import ALPHA

#: The 60-bit exponent used by the Figure 7 demonstration (60
#: iterations, as in the paper's "60 runs").
FIGURE7_EXPONENT = 0b101101110010110101001110110101100011010111001011010100111011

#: Moderate-noise DRAM model for the RSA case study: wide enough that
#: the per-bit success rate is realistically below 100 % (the paper
#: reports 95.7 %), narrow enough that the Figure 7 bands stay visible.
RSA_DRAM = DramConfig(
    base_latency=180, jitter=48, tail_probability=0.02, tail_extra=80
)


def cell_runner(
    variant: AttackVariant,
    channel: ChannelType,
    predictor: str,
    n_runs: int = 100,
    seed: int = 0,
    defense: Optional[Defense] = None,
    **overrides,
) -> AttackRunner:
    """The configured :class:`AttackRunner` behind one experiment cell.

    Shared by :func:`run_cell` and the supervised harness, which
    streams the same runner through
    :func:`repro.harness.runner.run_sequential_cell`.
    """
    config = AttackConfig(
        n_runs=n_runs,
        channel=channel,
        predictor=predictor,
        seed=seed,
        defense=defense,
        **overrides,
    )
    return AttackRunner(variant, config)


def run_cell(
    variant: AttackVariant,
    channel: ChannelType,
    predictor: str,
    n_runs: int = 100,
    seed: int = 0,
    defense: Optional[Defense] = None,
    **overrides,
) -> ExperimentResult:
    """Run one (attack, channel, predictor) experiment cell."""
    return cell_runner(
        variant, channel, predictor, n_runs, seed, defense=defense,
        **overrides,
    ).run_experiment()


def _artifact_results(
    artifact: str, n_runs: int, seed: int,
) -> Tuple[list, Dict[str, Any]]:
    """One artifact's plan, and its cells' results by cell id.

    The cells run serially through
    :func:`repro.harness.parallel.run_cells` under the default
    :class:`~repro.harness.runner.ExecutionPolicy`, the policy ``repro
    all`` runs, so each result equals that artifact's cell in ``repro
    all``.  A failed cell's result is ``None``.
    """
    from repro.harness.parallel import run_cells, sweep_specs

    specs = sweep_specs([artifact], n_runs=n_runs, seed=seed)
    cells = run_cells(specs, None)
    return specs, {cell_id: cell.result for cell_id, cell in cells.items()}


def _figure_panels(
    figure: str, n_runs: int, seed: int,
) -> List[Tuple[str, ExperimentResult]]:
    """A figure's (panel title, result) pairs, dropping failed cells."""
    from repro.harness.parallel import slots

    specs, results = _artifact_results(figure, n_runs, seed)
    return [
        (title, result) for title, result in slots(specs, results, figure)
        if result is not None
    ]


def figure5_panels(
    n_runs: int = 100, seed: int = 0,
) -> List[Tuple[str, ExperimentResult]]:
    """Figure 5: Train + Test with/without a VP, both channels.

    Panels (1)–(4): timing-window no-VP, timing-window LVP, persistent
    no-VP, persistent LVP.  Expected shape: the no-VP p-values are
    above 0.05 and the LVP ones below.
    """
    return _figure_panels("fig5", n_runs, seed)


def figure8_panels(
    n_runs: int = 100, seed: int = 0,
) -> List[Tuple[str, ExperimentResult]]:
    """Figure 8: Test + Hit, same four panels as Figure 5."""
    return _figure_panels("fig8", n_runs, seed)


def table3_results(
    n_runs: int = 100, seed: int = 0,
) -> Dict[AttackCategory, Dict[str, Optional[ExperimentResult]]]:
    """Table III: every category x channel x {no VP, VP} cell."""
    from repro.harness.parallel import table3_grid

    return table3_grid(*_artifact_results("table3", n_runs, seed))


def figure7_result(seed: int = 7) -> RsaAttackResult:
    """Figure 7: the per-iteration RSA exponent leak."""
    from repro.harness.parallel import run_cells, sweep_specs

    spec = dataclasses.replace(sweep_specs(["fig7"])[0], seed=seed)
    cell = run_cells([spec], None)[spec.cell_id]
    if cell.result is None:
        raise HarnessError(
            f"Figure 7 cell failed permanently: {cell.note or 'no result'}"
        )
    return cell.result


def window_sweep(
    variant: AttackVariant,
    windows: Sequence[int],
    n_runs: int = 100,
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    channel: ChannelType = ChannelType.TIMING_WINDOW,
    chain_length: Optional[int] = None,
    core_config=None,
) -> Tuple[List[Tuple[int, float]], Optional[int]]:
    """Section VI-B: sweep the R-type window size over one attack.

    For each window size the experiment runs once per seed (machine
    noise *and* the defense's random stream both vary with the seed)
    and the reported p-value is the median — the security boundary is
    a statistical threshold-crossing, and a single seed can wobble it
    by one or two window sizes.

    Returns the (window, median p-value) rows and the minimal *stable*
    secure window: the smallest size from which every swept window
    stays above 0.05.
    """
    if not windows:
        raise HarnessError("window sweep needs at least one window size")
    if not seeds:
        raise HarnessError("window sweep needs at least one seed")
    rows: List[Tuple[int, float]] = []
    for window in windows:
        pvalues = []
        for seed in seeds:
            result = run_cell(
                variant, channel, "lvp", n_runs, seed,
                defense=RandomWindowDefense(
                    window_size=window, seed=0x5EED ^ (seed * 2654435761)
                ),
                chain_length=chain_length,
                core_config=core_config,
            )
            pvalues.append(result.pvalue)
        pvalues.sort()
        median = pvalues[len(pvalues) // 2]
        rows.append((window, median))
    secure_at: Optional[int] = None
    for index in range(len(rows)):
        if all(pvalue >= ALPHA for _, pvalue in rows[index:]):
            secure_at = rows[index][0]
            break
    return rows, secure_at


def defense_matrix(
    cases: Sequence[Tuple[AttackVariant, ChannelType, Optional[Defense], str]],
    n_runs: int = 60,
    seed: int = 4,
) -> List[Dict[str, object]]:
    """Evaluate a list of (attack, channel, defense, label) cases."""
    rows: List[Dict[str, object]] = []
    for variant, channel, defense, label in cases:
        result = run_cell(
            variant, channel, "lvp", n_runs, seed, defense=defense
        )
        rows.append({
            "attack": variant.name,
            "channel": channel.value,
            "defense": label,
            "pvalue": result.pvalue,
        })
    return rows


def predictor_comparison(
    n_runs: int = 100,
    seed: int = 0,
    predictors: Sequence[str] = ("lvp", "vtage"),
    use_oracle: bool = False,
) -> Dict[str, Dict[str, float]]:
    """Section IV-D3: do the attacks work on other predictor types?

    Returns ``{predictor: {attack: pvalue}}`` for Train + Test and
    Test + Hit on the timing-window channel.
    """
    out: Dict[str, Dict[str, float]] = {}
    for predictor in predictors:
        out[predictor] = {}
        for variant in (TrainTestAttack(), TestHitAttack()):
            result = run_cell(
                variant, ChannelType.TIMING_WINDOW, predictor, n_runs, seed,
                use_oracle=use_oracle,
            )
            out[predictor][variant.name] = result.pvalue
    return out
