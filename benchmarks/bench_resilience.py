"""Resilient execution layer: supervised sweep under fault injection.

Runs the Figure 5 panels through the resilient executor with the
``chaos`` fault profile (DRAM noise + sample loss + VP corruption +
crashes) and measures the cost of supervision.  The assertions check
the robustness contract: every cell either completes with a
classification or is recorded as failed, injected crashes are
recovered by retries, and the same faults replay deterministically.
"""

from repro.core.variants import TrainTestAttack
from repro.harness.faults import FaultInjector, fault_profile
from repro.harness.runner import (
    CellClassification,
    ExecutionPolicy,
    ResilientExecutor,
    figure_panels_supervised,
)


def _supervised_sweep():
    executor = ResilientExecutor(
        ExecutionPolicy.robust(max_retries=3),
        injector=FaultInjector(fault_profile("chaos"), seed=0),
    )
    return figure_panels_supervised(
        executor, TrainTestAttack(), "fig5", n_runs=40, seed=0
    )


def test_supervised_sweep_under_chaos():
    panels = _supervised_sweep()
    print("\nFigure 5 panels under the 'chaos' fault profile:")
    for title, cell in panels:
        print(f"  {title}: {cell.classification.value} "
              f"({len(cell.attempts)} attempt(s), "
              f"{cell.escalations} escalation(s))"
              f"{'  -- ' + cell.note if cell.note else ''}")

    assert len(panels) == 4
    for _, cell in panels:
        assert isinstance(cell.classification, CellClassification)
        if cell.classification is not CellClassification.FAILED:
            assert cell.result is not None
        # Any attempt that errored must have been followed up.
        assert len(cell.attempts) >= 1

    # Determinism: replaying the identical sweep reproduces the exact
    # classifications, attempt counts, and p-values.
    replay = _supervised_sweep()
    for (_, first), (_, second) in zip(panels, replay):
        assert first.classification == second.classification
        assert len(first.attempts) == len(second.attempts)
        if first.result is not None:
            assert first.result.pvalue == second.result.pvalue
