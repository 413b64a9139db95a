"""Section I: value prediction's performance benefit.

The paper motivates VPs with speedups "from 4.8% [11] to 11.2% [9]".
Sweeps the value-locality fraction of a miss-heavy workload and checks
the shape: no locality -> no benefit; full locality -> single-digit-
percent speedup inside the cited band.
"""

from repro.memory.hierarchy import MemorySystem
from repro.vp.lvp import LastValuePredictor
from repro.vp.nopred import NoPredictor
from repro.workloads.perf import (
    run_workload,
    speedup_percent,
    value_locality_workload,
)

from tests.conftest import deterministic_memory_config


def _sweep():
    rows = []
    for fraction in (0.0, 0.25, 0.5, 0.75, 1.0):
        workload = value_locality_workload(
            stable_fraction=fraction, dependent_work=40, iterations=40
        )
        baseline = run_workload(
            workload, NoPredictor(),
            MemorySystem(deterministic_memory_config()),
        )
        predicted = run_workload(
            workload, LastValuePredictor(confidence_threshold=4),
            MemorySystem(deterministic_memory_config()),
        )
        rows.append(
            (fraction, baseline, predicted,
             speedup_percent(baseline, predicted))
        )
    return rows


def test_vp_speedup_band():
    rows = _sweep()
    print("\nValue-prediction speedup vs. value locality:")
    print(f"{'stable':>7s} {'baseline':>9s} {'with VP':>9s} {'speedup':>8s}")
    for fraction, baseline, predicted, speedup in rows:
        print(f"{fraction:7.2f} {baseline:9d} {predicted:9d} {speedup:7.1f}%")
    print("(paper's cited designs: 4.8% [11] to 11.2% [9])")

    speedups = {fraction: s for fraction, _, _, s in rows}
    assert abs(speedups[0.0]) < 1.0           # nothing to predict
    assert speedups[1.0] > speedups[0.25]     # monotone benefit
    assert 3.0 < speedups[1.0] < 15.0         # the cited band's shape
