"""Group-sequential early stopping on the Table III sweep.

Measures the PR 5 group-sequential measurement engine
(:mod:`repro.stats.sequential` + the incremental trial-streaming path
on :class:`repro.core.attack.AttackRunner`) against the fixed-N
protocol on the exact sweep the paper's Table III regenerates.  Three
claims are checked:

1. Verdict equivalence: every cell's attack/no-attack verdict under
   the sequential protocol matches the fixed-N verdict.
2. Prefix byte-identity: a sequential cell's timing samples are an
   exact prefix of the fixed-N cell's samples — trial k is the same
   simulation whether streamed or run cold.
3. Trial economy: decisive cells (fixed-N p-value far below alpha)
   stop at or before the half-budget look, and the sweep as a whole
   simulates meaningfully fewer trials than fixed-N.

The single-cell bench adds a fourth: on the flagship decisive cell
the sequential pass runs faster than fixed-N, timed in one process.
One-shot timings, ``slow``-marked like the other sweep benches.
"""

import pytest

import dataclasses
import tempfile
from pathlib import Path

pytestmark = pytest.mark.slow  # full regeneration; excluded from the quick CI pass

#: Sweep shape: sweep_specs(["table3"], n_runs=40, seed=0).
_N_RUNS = 40
_SEED = 0

#: A cell is "decisive" when its fixed-N p-value is below this, far
#: under alpha = 0.05.  Only cells whose evidence is that overwhelming
#: must exit by the half-budget look.
_DECISIVE_P = 1e-4


def _sweep_pass(sequential=None):
    """Run the Table III sweep serially; returns (seconds, cells)."""
    from repro._version import __version__
    from repro.harness.checkpoint import CheckpointStore
    from repro.harness.parallel import run_cells, sweep_specs
    from repro.harness.runner import ExecutionPolicy
    from repro.perf.observe import Stopwatch

    specs = sweep_specs(["table3"], n_runs=_N_RUNS, seed=_SEED)
    policy = ExecutionPolicy.compat()
    meta = {"version": __version__, "n_runs": _N_RUNS, "seed": _SEED}
    if sequential is not None:
        policy = dataclasses.replace(policy, sequential=sequential)
        meta["sequential"] = sequential.to_meta()
    with tempfile.TemporaryDirectory() as scratch:
        store = CheckpointStore.open(
            str(Path(scratch) / "checkpoint"), meta, resume=False
        )
        watch = Stopwatch()
        with watch:
            cells = run_cells(specs, store, policy, workers=1)
    return watch.elapsed, cells


def test_sequential_sweep_equivalence():
    """Sequential Table III: every fixed-N verdict, fewer trials."""
    from repro.harness.runner import SequentialPolicy
    from repro.perf.counters import COUNTERS, PerfCounters

    # Warm the program/trace caches so neither timed pass pays
    # first-build costs the other skipped.
    _sweep_pass()

    fixed_s, fixed = _sweep_pass()
    before = COUNTERS.snapshot()
    seq_s, sequential = _sweep_pass(SequentialPolicy())
    delta = PerfCounters.delta(before, COUNTERS.snapshot())

    assert set(sequential) == set(fixed)
    decisive = early = 0
    planned_trials = effective_trials = 0
    for cell_id, fixed_cell in sorted(fixed.items()):
        seq_cell = sequential[cell_id]
        assert seq_cell.result is not None and fixed_cell.result is not None
        # 1. Verdict equivalence, cell by cell.
        assert (
            seq_cell.result.attack_succeeds
            == fixed_cell.result.attack_succeeds
        ), (
            f"{cell_id}: sequential verdict "
            f"{seq_cell.result.attack_succeeds} != fixed-N "
            f"{fixed_cell.result.attack_succeeds} "
            f"(p={seq_cell.result.pvalue} vs {fixed_cell.result.pvalue})"
        )
        # 2. Prefix byte-identity of the streamed samples.
        seq_mapped = list(seq_cell.result.comparison.mapped.samples)
        fixed_mapped = list(fixed_cell.result.comparison.mapped.samples)
        assert seq_mapped == fixed_mapped[: len(seq_mapped)], (
            f"{cell_id}: sequential samples are not a prefix of fixed-N"
        )
        record = seq_cell.sequential
        assert record is not None, f"{cell_id}: no sequential record"
        effective_n = int(record["effective_n"])
        planned_n = int(record["planned_n"])
        assert planned_n == _N_RUNS
        assert effective_n == len(seq_mapped)
        planned_trials += 2 * planned_n
        effective_trials += 2 * effective_n
        if record["stopped_early"]:
            early += 1
        # 3. Decisive cells exit at or before the half-budget look.
        if fixed_cell.result.pvalue < _DECISIVE_P:
            decisive += 1
            assert effective_n <= planned_n // 2, (
                f"{cell_id}: decisive (fixed p="
                f"{fixed_cell.result.pvalue:.2e}) yet used "
                f"{effective_n}/{planned_n} runs"
            )

    speedup = fixed_s / seq_s if seq_s > 0 else 0.0
    print(f"\nGroup-sequential Table III sweep "
          f"({len(fixed)} cells, n_runs={_N_RUNS}):")
    print(f"  fixed-N    : {fixed_s:8.3f} s  "
          f"({planned_trials} trials)")
    print(f"  sequential : {seq_s:8.3f} s  "
          f"({effective_trials} trials, {early} early stops)")
    print(f"  speedup    : {speedup:7.2f} x   "
          f"({decisive} decisive cells all stopped at <= half budget)")
    print(f"  counters   : {delta.get('sequential_looks', 0)} looks, "
          f"{delta.get('sequential_trials_avoided', 0)} trials avoided, "
          f"{delta.get('sequential_cycles_avoided', 0)} cycles avoided")

    assert early > 0, "no cell stopped early at n_runs=40"
    assert decisive > 0, "sweep produced no decisive cells to check"
    assert effective_trials < planned_trials, (
        "sequential protocol simulated the full fixed-N budget"
    )


def _measure_sequential(n_runs, seed):
    """Time one decisive cell fixed-N vs group-sequential.

    The cell is the paper's flagship Train + Test attack over the
    timing-window channel with LVP.  Both passes stream the identical
    per-trial seed schedule, so the sequential pass's samples are a
    byte-exact prefix of the fixed-N pass's and the verdicts must
    agree.
    """
    from repro.core.channels import ChannelType
    from repro.core.variants import variant_by_name
    from repro.harness.experiment import cell_runner, run_cell
    from repro.harness.runner import (
        AdaptivePolicy,
        SequentialPolicy,
        run_sequential_cell,
    )
    from repro.perf.observe import Stopwatch

    variant = variant_by_name("Train + Test")
    channel = ChannelType.TIMING_WINDOW

    run_cell(  # warm-up: populate gadget/trace caches
        variant, channel, "lvp", n_runs=4, seed=seed
    )
    watch = Stopwatch()
    with watch:
        fixed = run_cell(variant, channel, "lvp", n_runs=n_runs, seed=seed)
    fixed_s = watch.elapsed

    watch = Stopwatch()
    with watch:
        outcome = run_sequential_cell(
            cell_runner(variant, channel, "lvp", n_runs=n_runs, seed=seed),
            SequentialPolicy().design_for(n_runs),
            AdaptivePolicy(),
        )
    sequential_s = watch.elapsed
    assert outcome.result.attack_succeeds == fixed.attack_succeeds, (
        "sequential verdict diverged from fixed-N: "
        f"{outcome.result.attack_succeeds} != {fixed.attack_succeeds}"
    )
    return {
        "n_runs": n_runs,
        "fixed_s": fixed_s,
        "sequential_s": sequential_s,
        "speedup": fixed_s / sequential_s if sequential_s > 0 else 0.0,
        "effective_n": outcome.effective_n,
        "stopped_early": bool(outcome.record["stopped_early"]),
        "looks": len(outcome.record["looks"]),
        "verdict_identical": True,
    }


def test_sequential_single_cell_speedup():
    """The canonical decisive cell: early exit with the same verdict."""
    seq = _measure_sequential(n_runs=60, seed=0)
    print(f"\nTrain + Test / timing-window (n_runs=60): "
          f"fixed {seq['fixed_s']:.3f}s, sequential "
          f"{seq['sequential_s']:.3f}s, {seq['speedup']:.2f}x; "
          f"effective n {seq['effective_n']}/{seq['n_runs']} after "
          f"{seq['looks']} look(s)")
    assert seq["verdict_identical"]
    assert seq["stopped_early"], (
        "the canonical Train + Test cell should be decisive at n=60"
    )
    assert seq["effective_n"] <= seq["n_runs"] // 2
    assert seq["speedup"] > 1.0, (
        f"sequential slower than fixed-N on a decisive cell: {seq}"
    )
