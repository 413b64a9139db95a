"""Batched lockstep backend: the Table III sweep, both backends.

The sweep-level companion to ``bench_sim_throughput``'s single-cell
trials/s ratio: runs the exact 18-cell Table III sweep under the
scalar reference backend and the numpy lockstep backend
(:mod:`repro.sim`), asserts every checkpointed cell payload is
byte-identical and the batched pass >= 10x faster.  A second bench
prices one defended column of the defense matrix (every Table III
cell under the D defense): identical p-values, zero fallbacks, and a
batched pass faster than scalar.

One-shot timings compared within one process, ``slow``-marked like
the other sweep benches so the quick CI pass stays quick.
"""

import pytest

import dataclasses
import tempfile
from pathlib import Path

pytestmark = pytest.mark.slow  # full regeneration; excluded from the quick CI pass

#: Trials per hypothesis per cell.  Large enough that the lockstep
#: engine's one-pass-per-chunk cost amortizes across real lane counts
#: (the production sweep shape); at smoke sizes (n_runs=8) the
#: per-cell fixed cost dominates and the speedup reads ~7x instead of
#: the >=10x the lanes actually deliver.
_N_RUNS = 64


def _sweep_pass(backend):
    """Run the Table III sweep serially; returns (seconds, payloads)."""
    from repro._version import __version__
    from repro.harness.checkpoint import CheckpointStore
    from repro.harness.parallel import run_cells, sweep_specs
    from repro.harness.runner import ExecutionPolicy
    from repro.perf.observe import Stopwatch

    specs = sweep_specs(["table3"], n_runs=_N_RUNS, seed=0)
    policy = dataclasses.replace(ExecutionPolicy.compat(), backend=backend)
    with tempfile.TemporaryDirectory() as scratch:
        store = CheckpointStore.open(
            str(Path(scratch) / "checkpoint"),
            {"version": __version__, "n_runs": _N_RUNS, "seed": 0},
            resume=False,
        )
        watch = Stopwatch()
        with watch:
            run_cells(specs, store, policy, workers=1)
        payloads = {spec.cell_id: store.load(spec.cell_id) for spec in specs}
    return watch.elapsed, payloads


def test_backend_sweep_identity_and_speedup():
    """18-cell sweep: batched byte-identical to scalar, and faster."""
    from repro.perf.counters import COUNTERS, PerfCounters
    from repro.sim import clear_fallback_journal, fallback_journal

    pytest.importorskip("numpy")

    _sweep_pass("batched")  # warm-up: gadget/trace caches + numpy import

    scalar_s, scalar_payloads = _sweep_pass("scalar")
    clear_fallback_journal()
    before = COUNTERS.snapshot()
    batched_s, batched_payloads = _sweep_pass("batched")
    delta = PerfCounters.delta(before, COUNTERS.snapshot())

    assert batched_payloads == scalar_payloads, (
        "batched sweep diverged from the scalar reference"
    )

    vector = delta.get("batched_vector_trials", 0)
    fallback = delta.get("batched_fallback_trials", 0)
    covered = vector + fallback
    speedup = scalar_s / batched_s if batched_s > 0 else 0.0
    print(f"\nTable III sweep ({len(batched_payloads)} cells, "
          f"n_runs={_N_RUNS}): scalar {scalar_s:.3f} s, "
          f"batched {batched_s:.3f} s, {speedup:.2f}x; "
          f"{vector} vectorized / {fallback} fallback trials")
    for cell, reason in fallback_journal():
        print(f"  fallback: {cell}: {reason}")

    assert vector > 0, "no trial ran vectorized across the whole sweep"
    assert covered and vector / covered >= 0.95, (
        f"sweep not fully vectorized: {vector}/{covered} trials "
        f"({fallback} fallbacks journaled)"
    )
    assert speedup >= 10.0, (
        f"batched sweep below the 10x target: {speedup:.2f}x"
    )


def test_backend_defended_column_speedup():
    """One defended column of the item-5 Pareto matrix, batched.

    Every Table III cell re-run under the D (delay-side-effects)
    defense — the defense whose deferred-fill lane form vectorizes
    fully — priced under both backends.  This is the per-column cost
    the ROADMAP item-5 defense matrix multiplies out, and the proof
    that defended cells now ride the vector path (zero fallbacks).
    """
    from repro.core.attack import AttackConfig, AttackRunner
    from repro.core.channels import ChannelType
    from repro.core.variants import variant_by_name
    from repro.defenses.delay_effects import DelaySideEffectsDefense
    from repro.harness.parallel import sweep_specs
    from repro.perf.counters import COUNTERS, PerfCounters
    from repro.perf.observe import Stopwatch
    from repro.sim import clear_fallback_journal, fallback_journal

    pytest.importorskip("numpy")

    cells = [
        (spec.variant, spec.channel, spec.predictor)
        for spec in sweep_specs(["table3"], n_runs=_N_RUNS, seed=0)
    ]

    def column(backend):
        pvalues = []
        for variant_name, channel, predictor in cells:
            # Fresh defense per runner: shared defense state across
            # runners would compare different random paths, not
            # different backends.
            runner = AttackRunner(variant_by_name(variant_name), AttackConfig(
                n_runs=_N_RUNS,
                channel=ChannelType(channel),
                predictor=predictor,
                seed=0,
                defense=DelaySideEffectsDefense(),
                backend=backend,
            ))
            pvalues.append(float(runner.run_experiment().pvalue))
        return pvalues

    column("batched")  # warm-up
    timings = {}
    results = {}
    clear_fallback_journal()
    before = COUNTERS.snapshot()
    for backend in ("scalar", "batched"):
        watch = Stopwatch()
        with watch:
            results[backend] = column(backend)
        timings[backend] = watch.elapsed
    delta = PerfCounters.delta(before, COUNTERS.snapshot())

    assert results["batched"] == results["scalar"], (
        "defended column diverged across backends"
    )
    vector = delta.get("batched_vector_trials", 0)
    fallback = delta.get("batched_fallback_trials", 0)
    speedup = (
        timings["scalar"] / timings["batched"]
        if timings["batched"] else 0.0
    )
    print(f"\nD-defended column ({len(cells)} cells, n_runs={_N_RUNS}): "
          f"scalar {timings['scalar']:.3f} s, batched "
          f"{timings['batched']:.3f} s, {speedup:.2f}x; "
          f"{vector} vectorized / {fallback} fallback trials")
    for cell, reason in fallback_journal():
        print(f"  fallback: {cell}: {reason}")

    assert fallback == 0, (
        f"the D defense should vectorize fully; journal: "
        f"{fallback_journal()}"
    )
    assert speedup > 1.0, (
        f"defended batched column slower than scalar: {speedup:.2f}x"
    )
