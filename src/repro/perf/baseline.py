"""Performance observability baseline: the ``repro perf`` command.

Measurements, all on the host that runs them:

* **backend** — one representative attack cell under the scalar
  reference and the selected trial-loop backend;
* **sequential** — the same cell fixed-N vs group-sequential;
* **serve** — the evaluation daemon under a few concurrent clients;
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
from typing import Any, Callable, Dict, List, Optional, Sequence

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

#: Representative cell for the single-cell sections: the paper's
#: flagship Train + Test attack over the timing-window channel.
_WARM_VARIANT = "Train + Test"
_WARM_CHANNEL = ChannelType.TIMING_WINDOW
_WARM_PREDICTOR = "lvp"


def _rate(hits: int, misses: int) -> float:
    total = hits + misses
    return hits / total if total else 0.0


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

    say("backend: 1 cell, scalar vs selected trial-loop backend ...")
    backend_section = measure_backend(
        n_runs=max(n_runs, 20), seed=seed, backend=backend,
    )

    say("sequential: 1 cell, fixed-N vs group-sequential ...")
    sequential = measure_sequential(n_runs=max(n_runs, 20), seed=seed)

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
        "backend": backend_section,
        "sequential": sequential,
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
