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


#: Least 4-worker/serial ratio on a host with >= 2 CPUs.  On a 2-CPU
#: host this test read 1.58-1.99x with scipy imported at startup (6
#: runs) and 1.51-1.96x with scipy loaded at the first statistic (12
#: runs).  With the pool forced to one worker, which runs no two cells
#: at once, it read 0.79-0.96x (5 runs).  The floor sits 14% below the
#: smallest healthy reading and 35% above the largest broken one.
PARALLEL_FLOOR = 1.3


def test_parallel_sweep_speedup():
    """Table III sweep at 4 workers vs serial, byte-identical results.

    An untimed serial pass first warms the process (imports, scipy,
    program and preflight memos), since the workers fork from it and
    would otherwise start warmer than the timed serial pass.  Then
    serial and 4-worker passes alternate twice, and the ratio is the
    faster serial pass over the faster parallel one, so a slow
    stretch of a shared host that hits one pass does not decide it.

    Any host with >= 2 CPUs must reach :data:`PARALLEL_FLOOR`; one CPU
    cannot run two cells at once, so no floor holds there.  A >= 4-CPU
    host that beats serial by 1.5x must also reach 3x; that claim has
    not been measured on a host that size.
    """
    import tempfile

    from repro._version import __version__
    from repro.harness.checkpoint import CheckpointStore
    from repro.harness.parallel import run_cells, sweep_specs
    from repro.harness.runner import ExecutionPolicy
    from repro.perf.observe import Stopwatch

    specs = sweep_specs(["table3"], n_runs=8, seed=0)
    meta = {"version": __version__, "n_runs": 8, "seed": 0}
    policy = ExecutionPolicy()

    def one_pass(workers):
        with tempfile.TemporaryDirectory() as scratch:
            store = CheckpointStore.open(
                str(Path(scratch) / "checkpoint"), dict(meta), resume=False
            )
            watch = Stopwatch()
            with watch:
                run_cells(specs, store, policy, workers=workers)
            payloads = {
                spec.cell_id: store.load(spec.cell_id) for spec in specs
            }
        return watch.elapsed, payloads

    _, reference = one_pass(1)
    elapsed = {1: [], 4: []}
    for _ in range(2):
        for workers in (1, 4):
            seconds, payloads = one_pass(workers)
            assert payloads == reference
            elapsed[workers].append(seconds)
    speedup = min(elapsed[1]) / min(elapsed[4])
    host_cpus = os.cpu_count() or 1
    print(f"\nTable III sweep ({len(specs)} cells, n_runs=8): serial "
          f"{min(elapsed[1]):.3f} s, 4 workers {min(elapsed[4]):.3f} s, "
          f"{speedup:.2f}x on {host_cpus} CPU(s)")
    if host_cpus >= 2:
        assert speedup >= PARALLEL_FLOOR, (
            f"4 workers beat serial by {speedup:.2f}x, below the "
            f"{PARALLEL_FLOOR}x floor"
        )
    if host_cpus >= 4 and speedup >= 1.5:
        assert speedup >= 3.0, (
            f"expected >= 3x at 4 workers on a >= 4-core host, "
            f"got {speedup:.2f}x"
        )
