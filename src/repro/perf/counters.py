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
    """Counters for the program cache and simulation throughput.

    Attributes:
        program_cache_hits / program_cache_misses: Lookups of the
            memoized attack-program factories
            (:func:`repro.perf.memo.memoize_program`).
        trials: Attack trials executed (one hypothesis run each).
        warm_resets: Trials served by the warm-machine reset protocol
            instead of cold construction.
        simulated_cycles: Total simulated cycles consumed by completed
            ``Core`` runs.
        program_cache_evictions: Entries dropped from memoized program
            factories when a cache exceeded its size bound.
        sequential_looks: Interim/final boundary looks taken by the
            group-sequential engine (:mod:`repro.stats.sequential`);
            a fixed-N cell takes one.
        sequential_early_stops: Cells whose verdict crossed an interim
            alpha-spending boundary before the fixed-N cap.
        sequential_trials_avoided: Trials (both hypotheses) never
            simulated thanks to early stopping: ``2 * (n_max -
            effective_n)`` per early-stopped cell.
        sequential_cycles_avoided: Deterministic estimate of the
            simulated cycles those avoided trials would have cost
            (avoided trials x the cell's mean trial cycles, truncated).
        escalation_trials_reused: Trials kept across adaptive
            inconclusive-band escalations: an extension re-simulates
            none of the trials the cell already has.
        batched_chunks: Lockstep chunks the batched backend vectorized.
        batched_vector_trials / batched_fallback_trials: Trials
            executed in numpy lanes vs through the scalar fallback
            (statically ineligible configs count as fallback too);
            their sum is every trial the batched backend handled.
        batched_lanes_retired: Uop-lanes retired across all vectorized
            chunks (a column retiring in L lanes counts L).  Each chunk
            runs one lockstep pass per hypothesis.
    """

    program_cache_hits: int = 0
    program_cache_misses: int = 0
    program_cache_evictions: int = 0
    trials: int = 0
    warm_resets: int = 0
    simulated_cycles: int = 0
    sequential_looks: int = 0
    sequential_early_stops: int = 0
    sequential_trials_avoided: int = 0
    sequential_cycles_avoided: int = 0
    escalation_trials_reused: int = 0
    batched_chunks: int = 0
    batched_vector_trials: int = 0
    batched_fallback_trials: int = 0
    batched_lanes_retired: int = 0

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


#: The process-global counter instance.
COUNTERS = PerfCounters()
