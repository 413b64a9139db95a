"""Performance observability baseline: the ``repro perf`` command.

Four measurements, all on the host that runs them:

* **warm batching** — one representative attack cell executed twice,
  with the warm-machine reset protocol on and off, to quantify the
  single-core gain from reusing the Core/MemorySystem pair across
  trials (and to re-check that both modes agree bit-for-bit);
* **snapshot fork** — the same cell under the legacy and the snapshot
  trial protocols (:mod:`repro.snapshot`): fork hit rate, simulated
  cycles avoided, bytes copied, plus an audited equivalence pass;
* **serial sweep** — a small supervised sweep through
  :func:`repro.harness.parallel.run_cells` at ``workers=1``:
  cells/second, simulated cycles/second, and the program/trace cache
  hit rates from :mod:`repro.perf.counters`;
* **parallel sweep** — the same sweep on a process pool: speedup over
  the serial pass and worker utilization.

The numbers are host-dependent by nature, so they are *observability*,
not artifacts: nothing simulated reads them, and the determinism lint
keeps it that way (host-time reads live in :mod:`repro.perf.observe`).
Results merge into a benchmark snapshot JSON
(:data:`DEFAULT_SNAPSHOT`) so regressions are visible across commits,
and ``--profile`` dumps a cProfile of the serial pass for drill-down.
"""

from __future__ import annotations

import cProfile
import dataclasses
import shutil
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro._version import __version__
from repro.core.channels import ChannelType
from repro.harness.checkpoint import CheckpointStore
from repro.harness.parallel import (
    CellSpec,
    SweepStats,
    _variant_by_name,
    run_cells,
    sweep_specs,
)
from repro.harness.runner import ExecutionPolicy
from repro.perf.observe import Stopwatch, write_bench_snapshot

#: Default benchmark snapshot the CLI merges its sections into.
DEFAULT_SNAPSHOT = "benchmarks/BENCH_parallel.json"

#: Representative cell for the warm-batching microbenchmark: the
#: paper's flagship Train + Test attack over the timing-window channel.
_WARM_VARIANT = "Train + Test"
_WARM_CHANNEL = ChannelType.TIMING_WINDOW
_WARM_PREDICTOR = "lvp"


def _rate(hits: int, misses: int) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def measure_warm_batching(
    n_runs: int = 40, seed: int = 0,
) -> Dict[str, Any]:
    """Time one cell with and without warm-machine trial batching.

    Runs a short untimed warm-up first so both timed passes see hot
    program/trace caches and the comparison isolates machine
    construction cost.  Also asserts the two modes agree, turning every
    ``repro perf`` invocation into a cheap determinism spot-check.
    Pinned to the scalar backend: the warm-machine reset protocol is a
    scalar-loop mechanism (the batched backend builds lockstep
    machines per chunk instead).
    """
    from repro.harness.experiment import run_cell

    variant = _variant_by_name(_WARM_VARIANT)

    def one(batch: bool):
        return run_cell(
            variant, _WARM_CHANNEL, _WARM_PREDICTOR,
            n_runs=n_runs, seed=seed, batch_trials=batch,
            backend="scalar",
        )

    one(True)  # warm-up: populate gadget/trace caches
    timings: Dict[str, float] = {}
    pvalues: Dict[str, float] = {}
    for label, batch in (("cold", False), ("warm", True)):
        watch = Stopwatch()
        with watch:
            result = one(batch)
        timings[label] = watch.elapsed
        pvalues[label] = float(result.pvalue)
    if pvalues["cold"] != pvalues["warm"]:
        raise AssertionError(
            "warm-batched cell diverged from cold-machine cell: "
            f"{pvalues['warm']} != {pvalues['cold']}"
        )
    return {
        "cell": f"{_WARM_VARIANT} / {_WARM_CHANNEL.value} / {_WARM_PREDICTOR}",
        "n_runs": n_runs,
        "cold_s": timings["cold"],
        "warm_s": timings["warm"],
        "speedup": (
            timings["cold"] / timings["warm"] if timings["warm"] > 0 else 0.0
        ),
        "identical": True,
    }


def measure_backend(
    n_runs: int = 40, seed: int = 0, backend: Optional[str] = None,
) -> Dict[str, Any]:
    """Trial-loop backend section: throughput plus lane accounting.

    Times the representative cell under the scalar reference backend
    and under the selected backend (``repro.sim``), asserts the two
    verdicts agree, and reports the lockstep lane counters from
    :mod:`repro.perf.counters` — mean lane width, lanes retired vs
    squashed, vectorized vs scalar-fallback trial counts, and
    nanoseconds per simulated cycle per lane — so a regression in the
    lane mask logic shows up here without reaching for a profiler.
    """
    from repro.harness.experiment import run_cell
    from repro.perf.counters import COUNTERS, PerfCounters
    from repro.sim import BackendUnavailableError, resolve_backend_name

    name = resolve_backend_name(backend)
    variant = _variant_by_name(_WARM_VARIANT)
    cell = f"{_WARM_VARIANT} / {_WARM_CHANNEL.value} / {_WARM_PREDICTOR}"

    def one(backend_name: str):
        return run_cell(
            variant, _WARM_CHANNEL, _WARM_PREDICTOR,
            n_runs=n_runs, seed=seed, backend=backend_name,
        )

    try:
        one(name)  # warm-up: gadget/trace caches + the numpy import
    except BackendUnavailableError as exc:
        return {
            "backend": name, "cell": cell, "n_runs": n_runs,
            "available": False, "error": str(exc),
        }
    watch = Stopwatch()
    with watch:
        reference = one("scalar")
    scalar_s = watch.elapsed
    before = COUNTERS.snapshot()
    watch = Stopwatch()
    with watch:
        result = one(name)
    backend_s = watch.elapsed
    delta = PerfCounters.delta(before, COUNTERS.snapshot())
    if float(result.pvalue) != float(reference.pvalue):
        raise AssertionError(
            f"backend {name!r} diverged from scalar: "
            f"{result.pvalue} != {reference.pvalue}"
        )
    chunks = delta.get("batched_chunks", 0)
    vector_trials = delta.get("batched_vector_trials", 0)
    fallback_trials = delta.get("batched_fallback_trials", 0)
    lane_cycles = delta.get("batched_lane_cycles", 0)
    covered = vector_trials + fallback_trials
    return {
        "backend": name,
        "cell": cell,
        "n_runs": n_runs,
        "available": True,
        "scalar_s": scalar_s,
        "backend_s": backend_s,
        "speedup": scalar_s / backend_s if backend_s > 0 else 0.0,
        "identical": True,
        "trials": delta.get("trials", 0),
        "mean_lane_width": (
            vector_trials / (2.0 * chunks) if chunks else 0.0
        ),
        "lanes_retired": delta.get("batched_lanes_retired", 0),
        "lanes_squashed": delta.get("batched_lanes_squashed", 0),
        "vector_trials": vector_trials,
        "fallback_trials": fallback_trials,
        "partitions": delta.get("batched_partitions", 0),
        "vectorized_fraction": vector_trials / covered if covered else 0.0,
        "ns_per_cycle_per_lane": (
            backend_s * 1e9 / lane_cycles if lane_cycles else 0.0
        ),
    }


def measure_snapshot_fork(
    n_runs: int = 40, seed: int = 0, audit_runs: int = 8,
) -> Dict[str, Any]:
    """Time one cell under the legacy and the snapshot trial protocols.

    The speedup compares the PR 3 warm-batched reset protocol against
    forking trials from the memoized post-prologue capture
    (:mod:`repro.snapshot`).  A short audited pass afterwards replays
    every fork cold and raises on any divergence, so the number comes
    with a per-invocation equivalence check.  Pinned to the scalar
    backend: the snapshot/fork engine is a scalar-loop mechanism (the
    batched backend forks lanes from one prologue in-lockstep and
    never touches the fork counters this section reports).
    """
    from repro.harness.experiment import run_cell
    from repro.perf.counters import COUNTERS, PerfCounters

    variant = _variant_by_name(_WARM_VARIANT)

    def one(**overrides):
        return run_cell(
            variant, _WARM_CHANNEL, _WARM_PREDICTOR,
            n_runs=n_runs, seed=seed, backend="scalar", **overrides,
        )

    one(snapshot_trials=True)  # warm-up: populate gadget/trace caches
    watch = Stopwatch()
    with watch:
        one()
    legacy_s = watch.elapsed
    before = COUNTERS.snapshot()
    watch = Stopwatch()
    with watch:
        one(snapshot_trials=True)
    fork_s = watch.elapsed
    delta = PerfCounters.delta(before, COUNTERS.snapshot())
    hits = delta.get("snapshot_prologue_hits", 0)
    misses = delta.get("snapshot_prologue_misses", 0)
    # Untimed equivalence audit: raises AttackError on any divergence.
    run_cell(
        variant, _WARM_CHANNEL, _WARM_PREDICTOR,
        n_runs=min(n_runs, max(audit_runs, 2)), seed=seed,
        snapshot_trials=True, audit_snapshots=True,
    )
    return {
        "cell": f"{_WARM_VARIANT} / {_WARM_CHANNEL.value} / {_WARM_PREDICTOR}",
        "n_runs": n_runs,
        "legacy_s": legacy_s,
        "fork_s": fork_s,
        "speedup": legacy_s / fork_s if fork_s > 0 else 0.0,
        "forks": delta.get("snapshot_forks", 0),
        "fork_hit_rate": _rate(hits, misses),
        "cycles_avoided": delta.get("snapshot_cycles_avoided", 0),
        "bytes_copied": delta.get("snapshot_bytes_copied", 0),
        "audited": True,
    }


def measure_sequential(n_runs: int = 60, seed: int = 0) -> Dict[str, Any]:
    """Time one decisive cell fixed-N vs group-sequential.

    Both passes stream the identical per-trial seed schedule, so the
    sequential pass's samples are a byte-exact prefix of the fixed-N
    pass's and the verdicts must agree — asserted per invocation, which
    makes every ``repro perf`` run a cheap equivalence spot-check of
    the early-stopping engine.
    """
    from repro.harness.experiment import cell_runner, run_cell
    from repro.harness.runner import (
        AdaptivePolicy,
        SequentialPolicy,
        run_sequential_cell,
    )
    from repro.perf.counters import COUNTERS, PerfCounters

    variant = _variant_by_name(_WARM_VARIANT)

    run_cell(  # warm-up: populate gadget/trace caches
        variant, _WARM_CHANNEL, _WARM_PREDICTOR, n_runs=4, seed=seed
    )
    watch = Stopwatch()
    with watch:
        fixed = run_cell(
            variant, _WARM_CHANNEL, _WARM_PREDICTOR,
            n_runs=n_runs, seed=seed,
        )
    fixed_s = watch.elapsed

    before = COUNTERS.snapshot()
    watch = Stopwatch()
    with watch:
        outcome = run_sequential_cell(
            cell_runner(
                variant, _WARM_CHANNEL, _WARM_PREDICTOR,
                n_runs=n_runs, seed=seed,
            ),
            SequentialPolicy().design_for(n_runs),
            AdaptivePolicy(),
        )
    sequential_s = watch.elapsed
    delta = PerfCounters.delta(before, COUNTERS.snapshot())
    if outcome.result.attack_succeeds != fixed.attack_succeeds:
        raise AssertionError(
            "sequential verdict diverged from fixed-N: "
            f"{outcome.result.attack_succeeds} != {fixed.attack_succeeds}"
        )
    return {
        "cell": f"{_WARM_VARIANT} / {_WARM_CHANNEL.value} / {_WARM_PREDICTOR}",
        "n_runs": n_runs,
        "fixed_s": fixed_s,
        "sequential_s": sequential_s,
        "speedup": fixed_s / sequential_s if sequential_s > 0 else 0.0,
        "effective_n": outcome.effective_n,
        "stopped_early": bool(outcome.record["stopped_early"]),
        "looks": len(outcome.record["looks"]),
        "trials_avoided": delta.get("sequential_trials_avoided", 0),
        "cycles_avoided": delta.get("sequential_cycles_avoided", 0),
        "verdict_identical": True,
    }


def measure_schedule(n_runs: int = 24, seed: int = 0) -> Dict[str, Any]:
    """Cross-cell lane pool vs per-cell batched on a sequential sweep.

    Runs the full Table III cell set group-sequentially three times —
    per-cell batched, pool with cold tapes (recording pass), pool with
    warm tapes (steady state) — and asserts every cell payload is
    byte-identical across all three.  The occupancy and refill
    counters come from the warm pass, so the reported numbers describe
    the scheduler in the regime it exists for: a long-lived process
    (a sweep, a daemon) whose compatible dispatches share recorded
    passes.
    """
    import dataclasses
    import json

    from repro.harness.parallel import execute_spec, sweep_specs
    from repro.harness.runner import (
        ExecutionPolicy,
        ResilientExecutor,
        SequentialPolicy,
    )
    from repro.perf.counters import COUNTERS, PerfCounters
    from repro.sim.schedule import pool_backend

    specs = sweep_specs("table3", n_runs=n_runs, seed=seed)

    def sweep(backend_name: str) -> Tuple[float, List[str]]:
        policy = dataclasses.replace(
            ExecutionPolicy.compat(),
            sequential=SequentialPolicy(),
            backend=backend_name,
        )
        executor = ResilientExecutor(policy, store=None)
        payloads: List[str] = []
        watch = Stopwatch()
        with watch:
            for spec in specs:
                cell = execute_spec(spec, executor)
                payloads.append(
                    json.dumps(cell.to_payload(), sort_keys=True)
                )
        return watch.elapsed, payloads

    pool_backend().reset()
    sweep("batched")  # warm-up: program/trace caches for both sides
    batched_s, batched_payloads = sweep("batched")
    cold_s, cold_payloads = sweep("pool")
    before = COUNTERS.snapshot()
    warm_s, warm_payloads = sweep("pool")
    delta = PerfCounters.delta(before, COUNTERS.snapshot())
    if cold_payloads != batched_payloads:
        raise AssertionError(
            "pool (recording pass) payloads diverged from batched"
        )
    if warm_payloads != batched_payloads:
        raise AssertionError(
            "pool (warm tapes) payloads diverged from batched"
        )
    offered = delta.get("pool_lanes_offered", 0)
    filled = delta.get("pool_lanes_filled", 0)
    return {
        "cells": len(specs),
        "n_runs": n_runs,
        "batched_s": batched_s,
        "pool_cold_s": cold_s,
        "pool_warm_s": warm_s,
        "speedup_cold": batched_s / cold_s if cold_s > 0 else 0.0,
        "speedup_warm": batched_s / warm_s if warm_s > 0 else 0.0,
        "occupancy": filled / offered if offered else 0.0,
        "lanes_offered": offered,
        "lanes_filled": filled,
        "lane_refills": delta.get("pool_lane_refills", 0),
        "passes_replayed": delta.get("pool_passes_replayed", 0),
        "passes_recorded": delta.get("pool_passes_recorded", 0),
        "replay_divergences": delta.get("pool_replay_divergences", 0),
        "trials_clipped": delta.get("pool_trials_clipped", 0),
        "warm_mems": delta.get("pool_warm_mems", 0),
        "payload_identical": True,
    }


def measure_serve(
    n_runs: int = 6, seed: int = 0, clients: int = 3, workers: int = 2,
) -> Dict[str, Any]:
    """Throughput + cache behaviour of the evaluation daemon.

    Hosts a :class:`repro.serve.daemon.ReproDaemon` in-process, then
    drives it with ``clients`` concurrent threads all asking for the
    same small cell set — the synthetic multi-client load the results
    cache exists for.  The first client to ask for a cell pays the
    simulation; the rest should hit the cache, and the reported hit
    rate says whether they did.
    """
    import asyncio
    import threading

    from repro.perf.counters import COUNTERS, PerfCounters
    from repro.serve.client import ServeClient
    from repro.serve.daemon import ReproDaemon, ServePolicy

    specs = [
        {"variant": variant, "channel": _WARM_CHANNEL.value,
         "predictor": _WARM_PREDICTOR, "n_runs": n_runs, "seed": seed}
        for variant in ("Train + Hit", "Train + Test", "Test + Hit")
    ]
    scratch = tempfile.mkdtemp(prefix="repro-serve-perf-")
    before = COUNTERS.snapshot()
    try:
        daemon = ReproDaemon(scratch, ServePolicy(
            workers=workers,
            queue_limit=max(8, clients * len(specs)),
            job_timeout_s=120.0,
        ))
        ready = threading.Event()
        host = threading.Thread(
            target=lambda: asyncio.run(daemon.run(ready)), daemon=True
        )
        host.start()
        if not ready.wait(30.0):
            raise AssertionError("serve daemon did not come up")

        errors: List[str] = []

        def one_client(index: int) -> None:
            client = ServeClient(scratch)
            for spec in specs:
                response = client.submit(spec, wait=True, timeout_s=120.0)
                if not response.get("ok") or response.get("state") != "done":
                    errors.append(f"client {index}: {response}")

        watch = Stopwatch()
        with watch:
            threads = [
                threading.Thread(target=one_client, args=(index,))
                for index in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        ServeClient(scratch).shutdown()
        host.join(30.0)
        if errors:
            raise AssertionError(
                f"serve perf pass failed: {errors[:3]}"
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    delta = PerfCounters.delta(before, COUNTERS.snapshot())
    served = (
        delta.get("serve_cache_hits", 0)
        + delta.get("serve_cache_journal_hits", 0)
        + delta.get("serve_cache_stale", 0)
    )
    done = delta.get("serve_jobs_done", 0)
    return {
        "clients": clients,
        "workers": workers,
        "cells": len(specs),
        "requests": clients * len(specs),
        "n_runs": n_runs,
        "elapsed_s": watch.elapsed,
        "jobs_accepted": delta.get("serve_jobs_accepted", 0),
        "jobs_rejected": delta.get("serve_jobs_rejected", 0),
        "jobs_shed": delta.get("serve_jobs_shed", 0),
        "jobs_done": done,
        "cache_hits": delta.get("serve_cache_hits", 0),
        "cache_journal_hits": delta.get("serve_cache_journal_hits", 0),
        "cache_misses": delta.get("serve_cache_misses", 0),
        "cache_hit_rate": _rate(served, delta.get("serve_cache_misses", 0)),
        "worker_restarts": delta.get("serve_worker_restarts", 0),
        "heartbeat_misses": delta.get("serve_heartbeat_misses", 0),
        "job_timeouts": delta.get("serve_job_timeouts", 0),
        "mean_queue_wait_ms": (
            delta.get("serve_queue_wait_us", 0) / 1000.0 / done
            if done else 0.0
        ),
    }


def _sweep_pass(
    specs: Sequence[CellSpec],
    workers: int,
    profiler: Optional[cProfile.Profile] = None,
    backend: Optional[str] = None,
) -> SweepStats:
    """One full prefill pass against a throwaway checkpoint store."""
    scratch = tempfile.mkdtemp(prefix="repro-perf-")
    try:
        store = CheckpointStore.open(
            str(Path(scratch) / "checkpoint"),
            {"version": __version__, "perf": True}, resume=False,
        )
        policy = dataclasses.replace(
            ExecutionPolicy.compat(), backend=backend
        )
        if profiler is not None:
            profiler.enable()
        try:
            return run_cells(specs, store, policy, workers=workers)
        finally:
            if profiler is not None:
                profiler.disable()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def perf_baseline(
    *,
    n_runs: int = 12,
    seed: int = 0,
    workers: int = 1,
    artifacts: Sequence[str] = ("fig5", "fig8"),
    snapshot_path: Optional[str] = DEFAULT_SNAPSHOT,
    profile_path: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
    backend: Optional[str] = None,
) -> Dict[str, Any]:
    """Measure the sweep engine's throughput baseline.

    ``backend`` selects the trial-loop backend (:mod:`repro.sim`) for
    the sweep passes and the backend section; ``None`` follows
    ``$REPRO_BACKEND`` and defaults to scalar.

    Returns the report dict; when ``snapshot_path`` is set, also merges
    it under the ``"repro_perf"`` section of that benchmark JSON.
    """
    say = progress or (lambda message: None)
    specs = sweep_specs(artifacts, n_runs=n_runs, seed=seed)

    say("warm batching: 1 cell, batch_trials on/off ...")
    warm = measure_warm_batching(n_runs=max(n_runs, 20), seed=seed)

    say("backend: 1 cell, scalar vs selected trial-loop backend ...")
    backend_section = measure_backend(
        n_runs=max(n_runs, 20), seed=seed, backend=backend,
    )

    say("snapshot fork: 1 cell, snapshot_trials on/off + audit ...")
    snapshot_fork = measure_snapshot_fork(n_runs=max(n_runs, 20), seed=seed)

    say("sequential: 1 cell, fixed-N vs group-sequential ...")
    sequential = measure_sequential(n_runs=max(n_runs, 20), seed=seed)

    say("lane pool: Table III sweep, per-cell batched vs pool ...")
    schedule = measure_schedule(n_runs=max(n_runs, 20), seed=seed)

    say("serve daemon: 3 clients x 3 cells, shared cache ...")
    serve = measure_serve(n_runs=min(n_runs, 8), seed=seed)

    if profile_path:
        # Separate pass: the profiler's tracing overhead would inflate
        # the serial time and with it the reported parallel speedup.
        say(f"profiled sweep: {len(specs)} cells ...")
        profiler = cProfile.Profile()
        _sweep_pass(specs, workers=1, profiler=profiler, backend=backend)
        profiler.dump_stats(profile_path)
        say(f"profile written to {profile_path}")

    say(f"serial sweep: {len(specs)} cells ...")
    serial = _sweep_pass(specs, workers=1, backend=backend)

    parallel: Optional[SweepStats] = None
    if workers > 1:
        say(f"parallel sweep: {len(specs)} cells, {workers} workers ...")
        parallel = _sweep_pass(specs, workers=workers, backend=backend)

    counters = serial.counters
    report: Dict[str, Any] = {
        "version": __version__,
        "n_runs": n_runs,
        "seed": seed,
        "artifacts": list(artifacts),
        "cells": len(specs),
        "warm_batching": warm,
        "backend": backend_section,
        "snapshot_fork": snapshot_fork,
        "sequential": sequential,
        "schedule": schedule,
        "serve": serve,
        "serial": {
            **serial.to_payload(),
            "program_cache_hit_rate": _rate(
                counters.get("program_cache_hits", 0),
                counters.get("program_cache_misses", 0),
            ),
            "trace_cache_hit_rate": _rate(
                counters.get("trace_cache_hits", 0),
                counters.get("trace_cache_misses", 0),
            ),
        },
        "parallel": None,
    }
    if parallel is not None:
        report["parallel"] = {
            **parallel.to_payload(),
            "speedup": (
                serial.elapsed_s / parallel.elapsed_s
                if parallel.elapsed_s > 0 else 0.0
            ),
        }
    if snapshot_path:
        write_bench_snapshot(Path(snapshot_path), "repro_perf", report)
        say(f"snapshot merged into {snapshot_path}")
    return report


def _coverage_lines(payload: Dict[str, Any]) -> List[str]:
    """Sweep-wide batched-backend coverage, if the sweep used it.

    Reads the ``vectorized_fraction`` / ``fallback_reasons`` keys a
    :class:`~repro.harness.parallel.SweepStats` payload carries; the
    events are aggregated across pool workers, so the fraction is the
    true sweep-wide number, not the parent process's view.
    """
    fraction = payload.get("vectorized_fraction")
    if fraction is None:
        return []
    lines = [f"  batched backend: {fraction * 100:.1f}% trials vectorized"]
    reasons = payload.get("fallback_reasons") or {}
    for reason, count in sorted(
        reasons.items(), key=lambda item: (-item[1], item[0])
    ):
        lines.append(f"    {count:4d} fallback(s): {reason}")
    return lines


def render_perf_report(report: Dict[str, Any]) -> str:
    """Human-readable rendering of a :func:`perf_baseline` report."""
    lines: List[str] = []
    lines.append(
        f"repro perf — sweep engine baseline "
        f"(v{report['version']}, n_runs={report['n_runs']}, "
        f"seed={report['seed']})"
    )
    warm = report["warm_batching"]
    lines.append("")
    lines.append(f"warm batching ({warm['cell']}, n_runs={warm['n_runs']}):")
    lines.append(
        f"  cold machines : {warm['cold_s']:7.3f} s   "
        f"warm reuse: {warm['warm_s']:7.3f} s   "
        f"speedup {warm['speedup']:.2f}x"
        + ("   [results identical]" if warm["identical"] else "")
    )
    backend = report.get("backend")
    if backend is not None:
        lines.append("")
        lines.append(
            f"trial-loop backend ({backend['backend']}, "
            f"{backend['cell']}, n_runs={backend['n_runs']}):"
        )
        if not backend.get("available", True):
            lines.append(f"  unavailable: {backend['error']}")
        else:
            lines.append(
                f"  scalar        : {backend['scalar_s']:7.3f} s   "
                f"{backend['backend']:10s}: {backend['backend_s']:7.3f} s   "
                f"speedup {backend['speedup']:.2f}x"
                + ("   [results identical]" if backend["identical"] else "")
            )
            lines.append(
                f"  {backend['vector_trials']} vectorized / "
                f"{backend['fallback_trials']} fallback trials "
                f"({backend['vectorized_fraction'] * 100:.1f}% vectorized), "
                f"mean lane width {backend['mean_lane_width']:.1f}, "
                f"{backend['partitions']} lane partitions"
            )
            lines.append(
                f"  {backend['lanes_retired']} lanes retired, "
                f"{backend['lanes_squashed']} squashed, "
                f"{backend['ns_per_cycle_per_lane']:.2f} ns/cycle/lane"
            )
    fork = report.get("snapshot_fork")
    if fork is not None:
        lines.append("")
        lines.append(
            f"snapshot fork ({fork['cell']}, n_runs={fork['n_runs']}):"
        )
        lines.append(
            f"  legacy warm   : {fork['legacy_s']:7.3f} s   "
            f"fork trials: {fork['fork_s']:7.3f} s   "
            f"speedup {fork['speedup']:.2f}x"
            + ("   [audit passed]" if fork.get("audited") else "")
        )
        lines.append(
            f"  {fork['forks']} forks, "
            f"{fork['fork_hit_rate'] * 100:.1f}% fork hit rate, "
            f"{fork['cycles_avoided'] / 1e6:.2f}M cycles avoided, "
            f"{fork['bytes_copied'] / 1e6:.2f} MB copied"
        )
    sequential = report.get("sequential")
    if sequential is not None:
        lines.append("")
        lines.append(
            f"group-sequential ({sequential['cell']}, "
            f"n_runs={sequential['n_runs']}):"
        )
        stopped = (
            "stopped early" if sequential.get("stopped_early")
            else "ran to the cap"
        )
        lines.append(
            f"  fixed-N       : {sequential['fixed_s']:7.3f} s   "
            f"sequential: {sequential['sequential_s']:7.3f} s   "
            f"speedup {sequential['speedup']:.2f}x"
            + ("   [verdicts identical]"
               if sequential.get("verdict_identical") else "")
        )
        lines.append(
            f"  effective n {sequential['effective_n']}"
            f"/{sequential['n_runs']} after {sequential['looks']} look(s) "
            f"({stopped}), {sequential['trials_avoided']} trials avoided, "
            f"{sequential['cycles_avoided'] / 1e6:.2f}M cycles avoided"
        )
    schedule = report.get("schedule")
    if schedule is not None:
        lines.append("")
        lines.append(
            f"lane pool ({schedule['cells']} Table III cells, "
            f"sequential, n_runs={schedule['n_runs']}):"
        )
        lines.append(
            f"  batched       : {schedule['batched_s']:7.3f} s   "
            f"pool cold : {schedule['pool_cold_s']:7.3f} s   "
            f"pool warm : {schedule['pool_warm_s']:7.3f} s"
        )
        lines.append(
            f"  speedup {schedule['speedup_warm']:.2f}x warm "
            f"({schedule['speedup_cold']:.2f}x recording pass)"
            + ("   [payloads identical]"
               if schedule.get("payload_identical") else "")
        )
        lines.append(
            f"  occupancy {schedule['occupancy'] * 100:.1f}% "
            f"({schedule['lanes_filled']}/{schedule['lanes_offered']} "
            f"lanes), {schedule['lane_refills']} refills, "
            f"{schedule['passes_replayed']} replayed / "
            f"{schedule['passes_recorded']} recorded passes, "
            f"{schedule['replay_divergences']} divergences"
        )
        lines.append(
            f"  {schedule['trials_clipped']} tail trials clipped at "
            f"look boundaries, {schedule['warm_mems']} warm-machine "
            f"reuses"
        )
    serve = report.get("serve")
    if serve is not None:
        lines.append("")
        lines.append(
            f"serve daemon ({serve['clients']} clients x "
            f"{serve['cells']} cells, {serve['workers']} workers, "
            f"n_runs={serve['n_runs']}):"
        )
        lines.append(
            f"  elapsed {serve['elapsed_s']:.2f} s — "
            f"{serve['jobs_accepted']} accepted, "
            f"{serve['jobs_rejected']} rejected, "
            f"{serve['jobs_shed']} shed, "
            f"{serve['jobs_done']} simulated"
        )
        lines.append(
            f"  cache {serve['cache_hit_rate'] * 100:.1f}% hits "
            f"({serve['cache_hits']} memory, "
            f"{serve['cache_journal_hits']} journal, "
            f"{serve['cache_misses']} misses), "
            f"mean queue wait {serve['mean_queue_wait_ms']:.1f} ms"
        )
        lines.append(
            f"  {serve['worker_restarts']} worker restarts, "
            f"{serve['heartbeat_misses']} heartbeat misses, "
            f"{serve['job_timeouts']} job timeouts"
        )
    serial = report["serial"]
    lines.append("")
    lines.append(
        f"serial sweep ({report['cells']} cells: "
        f"{','.join(report['artifacts'])}):"
    )
    lines.append(
        f"  elapsed {serial['elapsed_s']:.2f} s — "
        f"{serial['cells_per_s']:.2f} cells/s, "
        f"{serial['cycles_per_s'] / 1e6:.2f}M cycles/s"
    )
    lines.append(
        f"  program cache {serial['program_cache_hit_rate'] * 100:.1f}% "
        f"hits, trace cache {serial['trace_cache_hit_rate'] * 100:.1f}% "
        f"hits, {serial['counters'].get('trials', 0)} trials, "
        f"{serial['counters'].get('warm_resets', 0)} warm resets"
    )
    lines.extend(_coverage_lines(serial))
    parallel = report.get("parallel")
    lines.append("")
    if parallel is None:
        lines.append("parallel sweep: skipped (workers=1)")
    else:
        lines.append(f"parallel sweep ({parallel['workers']} workers):")
        lines.append(
            f"  elapsed {parallel['elapsed_s']:.2f} s — "
            f"speedup {parallel['speedup']:.2f}x vs serial, "
            f"utilization {parallel['utilization'] * 100:.0f}%"
        )
        lines.extend(_coverage_lines(parallel))
    return "\n".join(lines)
