"""Chaos-tested recovery of the attack-evaluation daemon.

Drives every Table III cell (attack category x channel x {no VP, VP})
through ``repro serve`` from three concurrent clients while a fault
profile kills and hangs workers mid-job, then proves the robustness
contract end to end:

* **100% completion, byte-identical** — every job completes and every
  verdict payload hashes identically to a clean serial
  :func:`repro.harness.parallel.execute_spec` run of the same cell;
* **hot cache under multi-client load** — duplicate questions from
  the other clients are answered from the content-addressed cache,
  and the hit rate is reported;
* **restart resumes, never re-simulates** — a daemon killed mid-sweep
  and restarted on the same root finishes the open jobs and answers
  every journaled cell with a trial-counter delta of zero.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import threading

from repro.harness.faults import FaultProfile
from repro.harness.parallel import execute_spec
from repro.harness.runner import ExecutionPolicy, ResilientExecutor
from repro.perf.counters import COUNTERS
from repro.perf.observe import write_sweep_trajectory
from repro.serve.client import ServeClient
from repro.serve.daemon import ReproDaemon, ServePolicy
from repro.serve.protocol import job_key, normalize_spec, spec_to_cell

from benchmarks.conftest import run_once

N_RUNS = 4
SEED = 0
CLIENTS = 3

#: Table III rows: every category on the timing-window channel, the
#: three Table II-compatible categories again on the persistent one.
_CATEGORIES = ["Train + Hit", "Train + Test", "Spill Over",
               "Test + Hit", "Fill Up", "Modify + Test"]
_PERSISTENT = ["Train + Test", "Test + Hit", "Fill Up"]

#: Process-level chaos: kills and hangs, never simulation noise.
CHAOS = FaultProfile(
    name="serve-chaos", worker_kill_rate=0.3, worker_hang_rate=0.2
)

POLICY = ServePolicy(
    workers=2, queue_limit=64, job_timeout_s=120.0,
    max_dispatches=8, heartbeat_timeout_s=0.5, http=False,
)


def _table3_specs():
    specs = []
    for variant in _CATEGORIES:
        for predictor in ("none", "lvp"):
            specs.append({"variant": variant, "channel": "timing-window",
                          "predictor": predictor, "n_runs": N_RUNS,
                          "seed": SEED})
    for variant in _PERSISTENT:
        for predictor in ("none", "lvp"):
            specs.append({"variant": variant, "channel": "persistent",
                          "predictor": predictor, "n_runs": N_RUNS,
                          "seed": SEED})
    return specs


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def _serial_baselines(specs):
    """Clean serial payloads, keyed by content-addressed job id."""
    executor = ResilientExecutor(ExecutionPolicy.compat())
    baselines = {}
    for spec in specs:
        normalized = normalize_spec(dict(spec))
        key = job_key(normalized, "compat")
        cell = execute_spec(spec_to_cell(normalized, key), executor)
        baselines[key] = cell.to_payload()
    return baselines


class _Daemon:
    def __init__(self, root, **kwargs):
        self.daemon = ReproDaemon(str(root), POLICY, **kwargs)
        self.thread = None

    def __enter__(self):
        ready = threading.Event()
        self.thread = threading.Thread(
            target=lambda: asyncio.run(self.daemon.run(ready)),
            daemon=True,
        )
        self.thread.start()
        assert ready.wait(30.0), "daemon did not come up"
        return self.daemon

    def __exit__(self, *exc):
        self.daemon.request_shutdown()
        self.thread.join(60.0)
        assert not self.thread.is_alive(), "daemon did not drain"


def _chaos_sweep(root, specs):
    """All Table III cells from CLIENTS concurrent clients under chaos."""
    responses = []
    lock = threading.Lock()
    with _Daemon(root, fault_profile_obj=CHAOS, fault_seed=7) as daemon:
        def one_client(index):
            client = ServeClient(str(root))
            for spec in specs:
                response = client.submit(spec, wait=True, timeout_s=180.0)
                with lock:
                    responses.append(response)

        threads = [threading.Thread(target=one_client, args=(i,))
                   for i in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(300.0)
        stats = daemon.stats_payload()
    return responses, stats


def test_serve_chaos_table3_byte_identical(benchmark, tmp_path):
    specs = _table3_specs()
    baselines = _serial_baselines(specs)
    before = COUNTERS.snapshot()

    responses, stats = run_once(
        benchmark, _chaos_sweep, tmp_path / "serve", specs
    )

    # 100% completion: every request from every client came back done.
    assert len(responses) == CLIENTS * len(specs)
    failed = [r for r in responses if r.get("state") != "done"]
    assert not failed, f"{len(failed)} job(s) failed under chaos: " \
                       f"{failed[:3]}"
    # ... and byte-identical to the clean serial baseline.
    for response in responses:
        expected = baselines[response["job_id"]]
        assert _digest(response["result"]) == _digest(expected), (
            f"verdict for {response['job_id']} diverged under chaos"
        )

    delta = COUNTERS.delta(before, COUNTERS.snapshot())
    assert delta["serve_jobs_done"] == len(specs)
    # Multi-client duplicate load hit the hot cache.
    hits = delta.get("serve_cache_hits", 0) \
        + delta.get("serve_cache_journal_hits", 0)
    assert hits >= (CLIENTS - 1) * len(specs)
    misses = delta.get("serve_cache_misses", 0)
    hit_rate = hits / max(hits + misses, 1)
    restarts = delta.get("serve_worker_restarts", 0)
    heartbeat_misses = delta.get("serve_heartbeat_misses", 0)

    print(f"\nserve chaos: {len(specs)} Table III cells x {CLIENTS} "
          f"clients, profile kill={CHAOS.worker_kill_rate} "
          f"hang={CHAOS.worker_hang_rate}")
    print(f"  completed 100% byte-identical; {restarts} worker "
          f"restart(s), {heartbeat_misses} heartbeat miss(es)")
    print(f"  cache hit rate {hit_rate:.1%} "
          f"({delta.get('serve_cache_hits', 0)} memory / "
          f"{delta.get('serve_cache_journal_hits', 0)} journal), mean "
          f"queue wait {stats['serve_mean_queue_wait_ms']:.1f} ms")

    write_sweep_trajectory(
        "serve_chaos", trials=delta.get("trials", 0), payload={
        "wall_clock_s": stats["uptime_s"],
        "cells": len(specs),
        "cells_per_s": len(specs) / max(stats["uptime_s"], 1e-9),
        "clients": CLIENTS,
        "requests": len(responses),
        "cache_hit_rate": hit_rate,
        "worker_restarts": restarts,
        "heartbeat_misses": heartbeat_misses,
        "byte_identical": True,
    })


def test_restart_mid_sweep_resumes_from_journal(benchmark, tmp_path):
    """Kill the daemon mid-sweep; the restart must not re-simulate."""
    specs = _table3_specs()
    done_specs, open_specs = specs[:4], specs[4:8]
    baselines = _serial_baselines(done_specs + open_specs)
    root = tmp_path / "serve"

    def interrupted_then_resumed():
        client_responses = []
        with _Daemon(root):
            client = ServeClient(str(root))
            for spec in done_specs:  # journaled before the "crash"
                response = client.submit(spec, wait=True, timeout_s=180.0)
                assert response["state"] == "done", response
            open_ids = [client.submit(spec)["job_id"]
                        for spec in open_specs]
        # The first incarnation drained; journaled cells must now be
        # answered without re-simulating a single trial.
        trials_before = COUNTERS.trials
        with _Daemon(root):
            client = ServeClient(str(root))
            for spec in done_specs:
                response = client.submit(spec, wait=True, timeout_s=60.0)
                assert response["cached"] is True, response
                client_responses.append(response)
            resumed_trials = COUNTERS.trials - trials_before
            # Jobs still open at the crash complete after restart.
            for job_id in open_ids:
                outcome = client.wait(job_id, timeout_s=180.0)
                assert outcome["state"] == "done", outcome
                client_responses.append(outcome)
        return client_responses, resumed_trials

    responses, resumed_trials = run_once(benchmark, interrupted_then_resumed)
    assert resumed_trials == 0, (
        f"restart re-simulated {resumed_trials} trial(s) for "
        f"journaled cells"
    )
    for response in responses:
        expected = baselines[response["job_id"]]
        assert _digest(response["result"]) == _digest(expected)
    print(f"\nserve restart: {len(done_specs)} journaled cell(s) "
          f"answered with zero re-simulated trials; "
          f"{len(responses) - len(done_specs)} open job(s) resumed "
          f"byte-identically")
