"""Sweep-engine speedups measured within one process.

Not a paper artifact: each bench times the same work two ways in one
process and asserts the ratio, so the verdict does not depend on how
fast the host is.  The batched lockstep backend must beat the scalar
reference on the flagship cell, and a 4-worker sweep must beat a
serial one where the host has the cores for it.  Both passes must
also agree byte for byte.
"""

import pytest

import os
from pathlib import Path

pytestmark = pytest.mark.slow  # full regeneration; excluded from the quick CI pass


def test_batched_backend_trials_per_s():
    """Batched lockstep backend: >= 10x trials/s on a Table III cell.

    One-shot comparative timing of the same cell under the scalar
    reference backend and the numpy lockstep backend (``repro.sim``).
    The batched pass must be fully vectorized (no scalar fallbacks) and
    byte-identical in verdict.
    """
    pytest.importorskip("numpy")
    from repro.harness.experiment import run_cell
    from repro.core.variants import variant_by_name
    from repro.core.channels import ChannelType
    from repro.perf.counters import COUNTERS, PerfCounters
    from repro.perf.observe import Stopwatch

    variant = variant_by_name("Train + Hit")
    n_runs = 64
    trials = 2 * n_runs

    def one(backend):
        return run_cell(
            variant, ChannelType.TIMING_WINDOW, "lvp",
            n_runs=n_runs, seed=0, backend=backend,
        )

    one("batched")  # warm-up: gadget/trace caches + numpy import
    timings = {}
    pvalues = {}
    before = COUNTERS.snapshot()
    for backend in ("scalar", "batched"):
        watch = Stopwatch()
        with watch:
            result = one(backend)
        timings[backend] = watch.elapsed
        pvalues[backend] = float(result.pvalue)
    delta = PerfCounters.delta(before, COUNTERS.snapshot())

    assert pvalues["scalar"] == pvalues["batched"]
    assert delta.get("batched_fallback_trials", 0) == 0, (
        "the flagship cell should run fully vectorized"
    )
    scalar_tps = trials / timings["scalar"] if timings["scalar"] else 0.0
    batched_tps = trials / timings["batched"] if timings["batched"] else 0.0
    speedup = batched_tps / scalar_tps if scalar_tps else 0.0
    print(f"\nTrain + Hit / timing-window (n_runs={n_runs}): "
          f"scalar {scalar_tps:.0f} trials/s, batched "
          f"{batched_tps:.0f} trials/s, {speedup:.1f}x")
    assert speedup >= 10.0, (
        f"batched backend below the 10x target: {speedup:.2f}x"
    )


def test_parallel_sweep_speedup():
    """Table III sweep at 4 workers vs serial, byte-identical results.

    The >= 3x wall-clock assertion applies only where it can settle:
    on a host with >= 4 CPUs, and only when the pool beat serial by at
    least 1.5x.  Below that, per-cell work is so small that
    process-pool dispatch overhead dominates, and the ratio says
    nothing about parallel scaling.
    """
    import tempfile

    from repro._version import __version__
    from repro.harness.checkpoint import CheckpointStore
    from repro.harness.parallel import run_cells, sweep_specs
    from repro.harness.runner import ExecutionPolicy

    specs = sweep_specs(["table3"], n_runs=8, seed=0)
    meta = {"version": __version__, "n_runs": 8, "seed": 0}
    policy = ExecutionPolicy.compat()

    def one_pass(workers):
        with tempfile.TemporaryDirectory() as scratch:
            store = CheckpointStore.open(
                str(Path(scratch) / "checkpoint"), dict(meta), resume=False
            )
            stats = run_cells(specs, store, policy, workers=workers)
            payloads = {
                spec.cell_id: store.load(spec.cell_id) for spec in specs
            }
        return stats, payloads

    serial, serial_payloads = one_pass(1)
    parallel, parallel_payloads = one_pass(4)
    assert serial_payloads == parallel_payloads
    speedup = (
        serial.elapsed_s / parallel.elapsed_s
        if parallel.elapsed_s > 0 else 0.0
    )
    host_cpus = os.cpu_count() or 1
    print(f"\nTable III sweep ({len(specs)} cells, n_runs=8): serial "
          f"{serial.elapsed_s:.3f} s, 4 workers {parallel.elapsed_s:.3f} s, "
          f"{speedup:.2f}x on {host_cpus} CPU(s)")
    if host_cpus >= 4 and speedup >= 1.5:
        assert speedup >= 3.0, (
            f"expected >= 3x at 4 workers on a >= 4-core host, "
            f"got {speedup:.2f}x"
        )
