"""Cross-cell continuous batching: the lane-pool scheduler.

Measures :mod:`repro.sim.schedule` (the ``pool`` backend) against the
per-cell ``batched`` backend on the exact sweeps it exists for.  Three
claims are checked:

1. Byte-identity: every cell payload under the pool — recording pass
   and warm steady state alike — is byte-for-byte the per-cell batched
   payload, at any admission order the sequential engine produces.
2. Steady-state speedup: with tapes warm, the full group-sequential
   Table III sweep runs at least 2x faster than per-cell batched,
   because compatible dispatches replay one recorded lockstep pass
   instead of re-interpreting the trace per look.
3. Exact occupancy: admission is demand-driven, so the pool's lane
   occupancy (lanes filled / lanes offered) is >= 0.9 by construction
   — asserted, not trusted.

The warm pass is the representative regime (a sweep re-run, a resumed
checkpoint, a long-lived ``repro serve`` worker); the cold recording
pass is reported alongside so the one-time tracing cost is a stamped
number, not a footnote.  A ~180-cell defense-matrix throughput record
rides along: fixed-N single-dispatch cells gain little from tapes by
design (the record heuristic refuses to trace a pass that nothing
later can amortize), so that record documents throughput honestly
rather than claiming a speedup.

One-shot comparative timing, ``slow``-marked like the other sweep
benches; the numbers land in the root-level ``BENCH_sweep.json``
perf trajectory.
"""

import pytest

pytestmark = pytest.mark.slow  # full regeneration; excluded from the quick CI pass

import dataclasses
import tempfile
from pathlib import Path

from benchmarks.conftest import run_once

#: Sweep shape: sweep_specs(["table3"], n_runs=64, seed=0).
_N_RUNS = 64
_SEED = 0


def _sweep_pass(backend=None):
    """Run the Table III sweep group-sequentially; (stats, payloads)."""
    from repro._version import __version__
    from repro.harness.checkpoint import CheckpointStore
    from repro.harness.parallel import run_cells, sweep_specs
    from repro.harness.runner import ExecutionPolicy, SequentialPolicy

    specs = sweep_specs(["table3"], n_runs=_N_RUNS, seed=_SEED)
    policy = dataclasses.replace(
        ExecutionPolicy.compat(),
        sequential=SequentialPolicy(),
        backend=backend,
    )
    meta = {"version": __version__, "n_runs": _N_RUNS, "seed": _SEED}
    with tempfile.TemporaryDirectory() as scratch:
        store = CheckpointStore.open(
            str(Path(scratch) / "checkpoint"), meta, resume=False
        )
        stats = run_cells(specs, store, policy, workers=1)
        payloads = {
            spec.cell_id: store.load(spec.cell_id) for spec in specs
        }
    return stats, payloads


def test_pool_sweep_speedup(benchmark):
    """Warm lane pool >= 2x per-cell batched, byte-identical, full."""
    from repro.perf.counters import COUNTERS, PerfCounters
    from repro.perf.observe import write_sweep_trajectory
    from repro.sim.schedule import pool_backend

    pool_backend().reset()
    # Warm the program/trace caches so neither timed pass pays
    # first-build costs the other skipped.
    _sweep_pass(backend="batched")

    batched_stats, batched = _sweep_pass(backend="batched")
    cold_stats, cold = _sweep_pass(backend="pool")
    before = COUNTERS.snapshot()
    warm_stats, warm = run_once(
        benchmark, _sweep_pass, backend="pool"
    )
    delta = PerfCounters.delta(before, COUNTERS.snapshot())

    # 1. Byte-identity, recording pass and steady state alike.
    assert cold == batched, (
        "pool recording pass diverged from per-cell batched"
    )
    assert warm == batched, (
        "warm pool pass diverged from per-cell batched"
    )

    offered = delta.get("pool_lanes_offered", 0)
    filled = delta.get("pool_lanes_filled", 0)
    occupancy = filled / offered if offered else 0.0
    speedup_warm = (
        batched_stats.elapsed_s / warm_stats.elapsed_s
        if warm_stats.elapsed_s > 0 else 0.0
    )
    speedup_cold = (
        batched_stats.elapsed_s / cold_stats.elapsed_s
        if cold_stats.elapsed_s > 0 else 0.0
    )
    trials = delta.get("trials", 0)

    print(f"\nLane-pool Table III sweep "
          f"({len(batched)} cells, sequential, n_runs={_N_RUNS}):")
    print(f"  batched    : {batched_stats.elapsed_s:8.3f} s")
    print(f"  pool cold  : {cold_stats.elapsed_s:8.3f} s  "
          f"({speedup_cold:.2f}x, recording pass)")
    print(f"  pool warm  : {warm_stats.elapsed_s:8.3f} s  "
          f"({speedup_warm:.2f}x)")
    print(f"  occupancy  : {occupancy * 100:7.1f} %   "
          f"({filled}/{offered} lanes, "
          f"{delta.get('pool_lane_refills', 0)} refills)")
    print(f"  passes     : {delta.get('pool_passes_replayed', 0)} "
          f"replayed, {delta.get('pool_passes_recorded', 0)} recorded, "
          f"{delta.get('pool_replay_divergences', 0)} divergences, "
          f"{delta.get('pool_trials_clipped', 0)} tail trials clipped")

    write_sweep_trajectory("bench_schedule", {
        "cells": len(batched),
        "n_runs": _N_RUNS,
        "wall_clock_s": warm_stats.elapsed_s,
        "cells_per_s": (
            len(batched) / warm_stats.elapsed_s
            if warm_stats.elapsed_s > 0 else 0.0
        ),
        "batched_wall_clock_s": batched_stats.elapsed_s,
        "cold_wall_clock_s": cold_stats.elapsed_s,
        "speedup_vs_batched": speedup_warm,
        "speedup_cold_vs_batched": speedup_cold,
        "trials_simulated": trials,
        "occupancy": occupancy,
        "lane_refills": delta.get("pool_lane_refills", 0),
        "passes_replayed": delta.get("pool_passes_replayed", 0),
        "passes_recorded": delta.get("pool_passes_recorded", 0),
        "replay_divergences": delta.get("pool_replay_divergences", 0),
        "trials_clipped": delta.get("pool_trials_clipped", 0),
        "payload_identical": True,
    }, backend="pool")

    assert occupancy >= 0.9, (
        f"lane occupancy {occupancy:.3f} below 0.9 — admission is no "
        "longer demand-exact"
    )
    assert speedup_warm >= 2.0, (
        f"warm lane pool below the 2x target: {speedup_warm:.2f}x"
    )


def _defense_matrix_cases():
    """~180 defended cells: variant/channel x defense x predictor."""
    from repro.core.channels import ChannelType
    from repro.core.variants import ALL_VARIANTS

    defense_specs = (
        "R[3]", "R[8]", "A[history]", "A[fixed]", "D", "invisispec",
        "A[fixed]+D", "A[history]+D", "R[3]+D", "invisispec+D",
    )
    cases = []
    for variant in ALL_VARIANTS:
        channels = [ChannelType.TIMING_WINDOW]
        if ChannelType.PERSISTENT in variant.supported_channels:
            channels.append(ChannelType.PERSISTENT)
        for channel in channels:
            for spec in defense_specs:
                for predictor in ("lvp", "vtage"):
                    cases.append((variant, channel, spec, predictor))
    return cases


def _defense_matrix_pass(backend, n_runs, seed):
    """Run every defended cell; returns the pvalue-by-cell dict."""
    from repro.cli import parse_defense
    from repro.harness.experiment import run_cell

    rows = {}
    for variant, channel, spec, predictor in _defense_matrix_cases():
        result = run_cell(
            variant, channel, predictor, n_runs, seed,
            defense=parse_defense(spec), backend=backend,
        )
        rows[f"{variant.name}/{channel.value}/{spec}/{predictor}"] = (
            result.pvalue
        )
    return rows


def test_pool_defense_matrix_throughput(benchmark):
    """~180 defended cells through the pool: identity + throughput.

    Fixed-N single-dispatch cells are exactly the shape the record
    heuristic declines to trace (nothing later amortizes the tracing
    overhead), so this is a throughput record of the pool's
    interpretive path — warm hierarchies plus the inherited batched /
    scalar-fallback semantics — not a tape-replay speedup claim.
    """
    from repro.perf.counters import COUNTERS, PerfCounters
    from repro.perf.observe import Stopwatch, write_sweep_trajectory
    from repro.sim.schedule import pool_backend

    n_runs, seed = 24, 4
    cases = len(_defense_matrix_cases())

    pool_backend().reset()
    _defense_matrix_pass("batched", 4, seed)  # warm program caches
    batched_watch = Stopwatch()
    with batched_watch:
        batched = _defense_matrix_pass("batched", n_runs, seed)
    batched_s = batched_watch.elapsed

    before = COUNTERS.snapshot()
    pool_watch = Stopwatch()
    with pool_watch:
        pooled = run_once(
            benchmark, _defense_matrix_pass, "pool", n_runs, seed
        )
    pool_s = pool_watch.elapsed
    delta = PerfCounters.delta(before, COUNTERS.snapshot())

    assert pooled == batched, (
        "pool defense-matrix pvalues diverged from per-cell batched"
    )
    trials = delta.get("trials", 0)
    print(f"\nDefense matrix ({cases} cells, n_runs={n_runs}):")
    print(f"  batched    : {batched_s:8.3f} s")
    print(f"  pool       : {pool_s:8.3f} s  "
          f"({trials} trials, "
          f"{delta.get('pool_warm_mems', 0)} warm-machine reuses, "
          f"{delta.get('batched_fallback_trials', 0)} scalar-fallback "
          f"trials)")

    write_sweep_trajectory("bench_schedule_defense", {
        "cells": cases,
        "n_runs": n_runs,
        "wall_clock_s": pool_s,
        "cells_per_s": cases / pool_s if pool_s > 0 else 0.0,
        "batched_wall_clock_s": batched_s,
        "trials_simulated": trials,
        "warm_mems": delta.get("pool_warm_mems", 0),
        "fallback_trials": delta.get("batched_fallback_trials", 0),
        "payload_identical": True,
    }, backend="pool")
