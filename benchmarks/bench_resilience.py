"""Resilient execution layer: supervised sweep under injected crashes.

Runs the Figure 5 panels through the resilient executor with the
``crash`` fault profile.  At fault seed 0 the two timing-window cells
crash on attempt 0 and recover on attempt 1, under a reseeded attempt.
A fault may only crash an attempt, never perturb a measurement, so the
assertions check that every recovered cell equals a clean run of that
cell at the seed its successful attempt recorded, and that the same
faults replay deterministically.
"""

from repro.core.variants import TrainTestAttack
from repro.harness.checkpoint import serialize_result
from repro.harness.faults import fault_profile
from repro.harness.parallel import run_cells, slots, sweep_specs
from repro.harness.runner import (
    CellClassification,
    ExecutionPolicy,
    ResilientExecutor,
    RetryPolicy,
)

POLICY = ExecutionPolicy(retry=RetryPolicy(max_retries=3))
N_RUNS = 40


def _supervised_sweep():
    specs = sweep_specs(["fig5"], n_runs=N_RUNS, seed=0)
    cells = run_cells(
        specs, None, POLICY, fault_profile=fault_profile("crash"),
    )
    return slots(specs, cells, "fig5")


def test_supervised_sweep_under_crash():
    panels = _supervised_sweep()
    print("\nFigure 5 panels under the 'crash' fault profile:")
    for title, cell in panels:
        print(f"  {title}: {cell.classification.value} "
              f"({len(cell.attempts)} attempt(s), "
              f"{cell.escalations} escalation(s))"
              f"{'  -- ' + cell.note if cell.note else ''}")

    assert len(panels) == 4
    recovered = [cell for _, cell in panels if len(cell.attempts) > 1]
    assert recovered, "no cell crashed, so no recovery was checked"

    # A recovered cell is a pure function of its final attempt's seed.
    clean = ResilientExecutor(POLICY)
    for cell in recovered:
        assert cell.classification is CellClassification.RETRIED
        reference = clean.run_cell_supervised(
            cell.cell_id, TrainTestAttack(), cell.result.channel,
            cell.result.predictor_name, N_RUNS, cell.final_attempt.seed,
        )
        assert reference.classification is not CellClassification.FAILED
        assert (serialize_result(cell.result)
                == serialize_result(reference.result))

    # Determinism: replaying the identical sweep reproduces the exact
    # classifications, attempt counts, and p-values.
    replay = _supervised_sweep()
    for (_, first), (_, second) in zip(panels, replay):
        assert first.classification == second.classification
        assert len(first.attempts) == len(second.attempts)
        if first.result is not None:
            assert first.result.pvalue == second.result.pvalue
