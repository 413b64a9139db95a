"""Deterministic perf counters (no clock, no RNG — pure bookkeeping).

A single process-global :data:`COUNTERS` instance accumulates
throughput statistics.  Everything here is a plain integer
increment, so enabling the counters can never perturb a result; the
parallel sweep engine snapshots them per worker task and aggregates
the deltas in the parent.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict


@dataclass
class PerfCounters:
    """Counters of simulation throughput and early stopping.

    Attributes:
        trials: Attack trials executed (one hypothesis run each).
        simulated_cycles: Total simulated cycles consumed by completed
            ``Core`` runs and lockstep passes.
        sequential_looks: Interim/final boundary looks taken by the
            group-sequential engine (:mod:`repro.stats.sequential`);
            a fixed-N cell takes one.
        sequential_trials_avoided: Trials (both hypotheses) never
            simulated thanks to early stopping: ``2 * (n_max -
            effective_n)`` per early-stopped cell.
        sequential_cycles_avoided: Deterministic estimate of the
            simulated cycles those avoided trials would have cost
            (avoided trials x the cell's mean trial cycles, truncated).
        batched_vector_trials / batched_fallback_trials: Trials
            executed in numpy lanes vs through the scalar fallback
            (statically ineligible configs count as fallback too);
            their sum is every trial the batched backend handled.
    """

    trials: int = 0
    simulated_cycles: int = 0
    sequential_looks: int = 0
    sequential_trials_avoided: int = 0
    sequential_cycles_avoided: int = 0
    batched_vector_trials: int = 0
    batched_fallback_trials: int = 0

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
