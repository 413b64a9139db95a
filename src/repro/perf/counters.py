"""Deterministic perf counters (no clock, no RNG — pure bookkeeping).

A single process-global :data:`COUNTERS` instance accumulates cache
and throughput statistics.  Everything here is a plain integer
increment, so enabling the counters can never perturb a result; the
parallel sweep engine snapshots them per worker task and aggregates
the deltas in the parent.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict


@dataclass
class PerfCounters:
    """Counters for the program/uop caches and simulation throughput.

    Attributes:
        program_cache_hits / program_cache_misses: Lookups of the
            memoized attack-program factories
            (:func:`repro.perf.memo.memoize_program`).
        trace_cache_hits / trace_cache_misses: Lookups of the decoded
            dynamic-uop trace (:meth:`repro.isa.program.Program.dynamic_trace`).
        trials: Attack trials executed (one hypothesis run each).
        warm_resets: Trials served by the warm-machine reset protocol
            instead of cold construction.
        simulated_cycles: Total simulated cycles consumed by completed
            ``Core`` runs.
        program_cache_evictions: Entries dropped from memoized program
            factories when a cache exceeded its size bound.
        snapshot_forks: Trials served by restoring a post-prologue
            machine capture (:mod:`repro.snapshot`).
        snapshot_prologue_hits / snapshot_prologue_misses: Per
            snapshot-protocol trial: did a memoized prologue capture
            exist (hit → fork) or did the prologue run for real (miss
            → capture trial or full-replay fallback)?
        snapshot_audit_replays: Cold replays performed by the
            ``--audit-snapshots`` equivalence audit.
        snapshot_cycles_avoided: Simulated prologue cycles skipped by
            forks (the capture's cycle count, once per fork).
        snapshot_bytes_copied: Approximate bytes structurally copied by
            captures and restores (deterministic estimate, see
            :func:`repro.snapshot.approx_state_bytes`).
        sequential_looks: Interim/final boundary looks taken by the
            group-sequential engine (:mod:`repro.stats.sequential`).
        sequential_early_stops: Cells whose verdict crossed an interim
            alpha-spending boundary before the fixed-N cap.
        sequential_trials_avoided: Trials (both hypotheses) never
            simulated thanks to early stopping: ``2 * (n_max -
            effective_n)`` per early-stopped cell.
        sequential_cycles_avoided: Deterministic estimate of the
            simulated cycles those avoided trials would have cost
            (avoided trials x the cell's mean trial cycles, truncated).
        escalation_trials_reused: Trials kept across adaptive
            inconclusive-band escalations under the streaming
            extension protocol — each of these used to be re-simulated
            from scratch by the legacy 2xN re-run.
        serve_jobs_accepted / serve_jobs_rejected / serve_jobs_shed:
            Daemon admission outcomes — enqueued, bounced with
            retry-after (queue full), or refused because the daemon
            was shedding load (supervisor unhealthy).
        serve_jobs_done: Jobs that produced a verdict (fresh or from
            a journal replay).
        serve_cache_hits / serve_cache_journal_hits /
        serve_cache_stale / serve_cache_misses: Result-cache lookups:
            fresh in-memory hit, checkpoint-journal hit, stale result
            served during degradation, and misses that cost a
            simulation.
        serve_worker_restarts: Worker processes respawned by the
            supervisor after a crash, hang, or timeout kill.
        serve_heartbeat_misses: Workers killed because their heartbeat
            deadline lapsed (hang detection).
        serve_job_timeouts: Jobs whose per-dispatch wall-clock budget
            expired (the worker was killed and the job redispatched).
        serve_job_redispatches: Job dispatches beyond the first,
            i.e. deterministic retries after a process-level fault.
        serve_queue_wait_us: Total microseconds jobs spent queued
            before their first dispatch (mean = this / jobs done;
            integer microseconds keep the counters clock-free in
            aggregate form).
        batched_chunks / batched_fallback_chunks: Lockstep chunks the
            batched backend vectorized vs replayed on the scalar path
            after a divergence.
        batched_vector_trials / batched_fallback_trials: Trials
            executed in numpy lanes vs through the scalar fallback
            (statically ineligible configs count as fallback too);
            their sum is every trial the batched backend handled.
        batched_lane_cycles: Lane-cycles simulated by the lockstep
            engine (the scalar-equivalent cycle count; also folded
            into ``simulated_cycles`` so budgets are backend-neutral).
        batched_lanes_retired / batched_lanes_squashed: Uop-lanes
            retired and squash-lanes taken across all vectorized
            chunks (a column retiring in L lanes counts L).
        batched_partitions: Lockstep passes regrouped because their
            lanes disagreed on a per-trial draw (an R-window offset or
            a post-split prediction); each group re-ran as its own
            pass.
        pool_passes_recorded / pool_passes_replayed: Lane-pool
            hypothesis passes that ran under a tape recorder vs were
            served entirely off a cached tape (no machine at all).
        pool_replay_divergences: Replays abandoned because a recorded
            guard evaluated differently under the new seeds (the pass
            re-ran interpretively; a counted slowdown, never an error).
        pool_tapes_invalid: Recording attempts aborted mid-pass
            because the trace left the tape's envelope (e.g. a
            predictor lane split); the key is marked non-recordable.
        pool_lanes_offered / pool_lanes_filled: Lanes of demand the
            pool was asked for vs lanes it executed through a pooled
            resource; mean occupancy is ``filled / offered`` and is
            1.0 by construction under demand-driven admission — the
            pair exists so regressions are asserted, not trusted.
        pool_lane_refills: Lanes admitted into an *already recorded*
            pass (replayed lanes): later looks of the recording cell,
            compatible cells, or other jobs sharing the pool.
        pool_trials_clipped: Trials a fill-every-lane scheduler would
            have dispatched past a decisive interim look that the
            pool's look-boundary clipping never admitted.
        pool_warm_mems: Interpretive pool passes that reused a pooled
            memory hierarchy via ``reset(seed)`` instead of building
            caches from scratch.
    """

    program_cache_hits: int = 0
    program_cache_misses: int = 0
    program_cache_evictions: int = 0
    trace_cache_hits: int = 0
    trace_cache_misses: int = 0
    trials: int = 0
    warm_resets: int = 0
    simulated_cycles: int = 0
    snapshot_forks: int = 0
    snapshot_prologue_hits: int = 0
    snapshot_prologue_misses: int = 0
    snapshot_audit_replays: int = 0
    snapshot_cycles_avoided: int = 0
    snapshot_bytes_copied: int = 0
    sequential_looks: int = 0
    sequential_early_stops: int = 0
    sequential_trials_avoided: int = 0
    sequential_cycles_avoided: int = 0
    escalation_trials_reused: int = 0
    serve_jobs_accepted: int = 0
    serve_jobs_rejected: int = 0
    serve_jobs_shed: int = 0
    serve_jobs_done: int = 0
    serve_cache_hits: int = 0
    serve_cache_journal_hits: int = 0
    serve_cache_stale: int = 0
    serve_cache_misses: int = 0
    serve_worker_restarts: int = 0
    serve_heartbeat_misses: int = 0
    serve_job_timeouts: int = 0
    serve_job_redispatches: int = 0
    serve_queue_wait_us: int = 0
    batched_chunks: int = 0
    batched_fallback_chunks: int = 0
    batched_vector_trials: int = 0
    batched_fallback_trials: int = 0
    batched_lane_cycles: int = 0
    batched_lanes_retired: int = 0
    batched_lanes_squashed: int = 0
    batched_partitions: int = 0
    pool_passes_recorded: int = 0
    pool_passes_replayed: int = 0
    pool_replay_divergences: int = 0
    pool_tapes_invalid: int = 0
    pool_lanes_offered: int = 0
    pool_lanes_filled: int = 0
    pool_lane_refills: int = 0
    pool_trials_clipped: int = 0
    pool_warm_mems: int = 0

    def snapshot(self) -> Dict[str, int]:
        """The counter values as a plain dict (JSON- and pickle-safe)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def reset(self) -> None:
        """Zero every counter."""
        for f in fields(self):
            setattr(self, f.name, 0)

    def add(self, delta: Dict[str, int]) -> None:
        """Accumulate a snapshot delta (e.g. returned by a worker)."""
        for name, value in delta.items():
            setattr(self, name, getattr(self, name) + int(value))

    @staticmethod
    def delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
        """Per-counter difference between two snapshots (zeros omitted)."""
        moved = {name: after[name] - before.get(name, 0) for name in after}
        return {name: value for name, value in moved.items() if value}

    # -- derived rates -------------------------------------------------
    @staticmethod
    def _rate(hits: int, misses: int) -> float:
        total = hits + misses
        return hits / total if total else 0.0

    @property
    def program_cache_hit_rate(self) -> float:
        """Hit rate of the memoized program factories (0 when idle)."""
        return self._rate(self.program_cache_hits, self.program_cache_misses)

    @property
    def trace_cache_hit_rate(self) -> float:
        """Hit rate of the decoded uop-trace cache (0 when idle)."""
        return self._rate(self.trace_cache_hits, self.trace_cache_misses)

    @property
    def snapshot_fork_hit_rate(self) -> float:
        """Fraction of snapshot-protocol trials served by a fork."""
        return self._rate(
            self.snapshot_prologue_hits, self.snapshot_prologue_misses
        )

    @property
    def serve_cache_hit_rate(self) -> float:
        """Fraction of daemon lookups served without a simulation."""
        served = (self.serve_cache_hits + self.serve_cache_journal_hits
                  + self.serve_cache_stale)
        return self._rate(served, self.serve_cache_misses)

    @property
    def batched_mean_lane_width(self) -> float:
        """Mean lanes per vectorized chunk (0 when none ran)."""
        if not self.batched_chunks:
            return 0.0
        return self.batched_vector_trials / (2.0 * self.batched_chunks)

    @property
    def batched_vectorized_fraction(self) -> float:
        """Fraction of batched-backend trials that ran in lanes."""
        return self._rate(
            self.batched_vector_trials, self.batched_fallback_trials
        )

    @property
    def pool_occupancy(self) -> float:
        """Mean lane occupancy of the pool scheduler (0 when idle)."""
        if not self.pool_lanes_offered:
            return 0.0
        return self.pool_lanes_filled / self.pool_lanes_offered

    @property
    def serve_mean_queue_wait_ms(self) -> float:
        """Mean milliseconds a completed job waited before dispatch."""
        if not self.serve_jobs_done:
            return 0.0
        return self.serve_queue_wait_us / 1000.0 / self.serve_jobs_done


#: The process-global counter instance.
COUNTERS = PerfCounters()
