"""The batched backend: many trials of one cell in numpy lockstep.

:class:`BatchedBackend` satisfies the :class:`~repro.sim.SimBackend`
protocol by carving the requested trial range into chunks of up to
:data:`CHUNK_LANES` lanes and running each hypothesis's chunk as one
:class:`~repro.sim.lockstep.LockstepMachine` pass — the real Table II
variant code drives a :class:`~repro.sim.lockstep.LaneCore` facade over
a machine whose jitter draws, default memory values and cycle schedules
are ``[lanes]`` vectors while caches, TLB and the value predictor stay
the real, shared, scalar structures.

Byte-identity with the scalar backend is a construction invariant, not
an aspiration: a scalar trial is a pure function of its seed, the seed
schedule is replicated exactly (one trial seed per lane), and anything
the lockstep engine cannot prove schedule-exact and lane-uniform raises
:class:`~repro.sim.lockstep.LaneDivergence`.  A per-trial draw the lanes
disagree on (the R defense's window offsets) is a lane value, verified
lane by lane, and a cache line or TLB page that only some lanes fill
(the persistent encode load under R) is lane-private in the machine's
overlay, so each hypothesis's chunk runs as one pass from the trial's
start to its measurement.  Divergence — or *any*
failure of the vectorized attempt — falls the whole chunk back to the
scalar backend's canonical interleaved loop, so a genuine error
reproduces with authentic scalar semantics and a benign divergence
costs only speed.  Every fallback is journaled
(:func:`repro.sim.journal_fallback`) and counted
(``COUNTERS.batched_fallback_trials``): "it ran, but not vectorized"
is an observable fact, never a silent perf cliff.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.core.channels import ChannelType
from repro.errors import BackendUnavailableError
from repro.memory.hierarchy import MemoryConfig
from repro.perf.counters import COUNTERS
from repro.sim import journal_fallback
from repro.sim.scalar import ScalarBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.attack import AttackRunner, TrialResult

#: Lockstep lane width: wide enough to amortize the per-column Python
#: overhead across lanes, small enough that a late-chunk divergence
#: does not discard much vector work.
CHUNK_LANES = 128

#: Predictor spec strings with a lane-uniform shared-state form.  The
#: oracle wrapper composes (it is a pure PC filter); lvp, vtage and
#: the no-predictor are deterministic pure-Python state machines, so
#: one shared instance (or, after a lane split, per-lane deepcopies)
#: replays any lane-uniform training sequence exactly.  Callables are
#: opaque — they fall back.
_VECTOR_PREDICTORS = ("lvp", "none", "vtage")


class BatchedBackend:
    """Lockstep-vectorized trial execution with journaled scalar fallback."""

    name = "batched"

    def __init__(self) -> None:
        try:
            import numpy  # noqa: F401  (availability probe)
        except ImportError as exc:  # pragma: no cover - needs bare env
            raise BackendUnavailableError(
                "the batched backend needs numpy, which is not installed; "
                "install the batch extra (pip install 'repro[batch]') or "
                "numpy itself, or select --backend scalar"
            ) from exc
        from repro.sim import lockstep

        self._lockstep = lockstep
        self._scalar = ScalarBackend()

    # ------------------------------------------------------------------
    def run_pairs(
        self, runner: "AttackRunner", start: int, stop: int
    ) -> List[Tuple["TrialResult", "TrialResult"]]:
        """Trials ``start .. stop-1``; chunks vectorize or fall back."""
        if stop <= start:
            return []
        reason = self._static_fallback_reason(runner)
        if reason is not None:
            self._journal(runner, reason)
            COUNTERS.batched_fallback_trials += 2 * (stop - start)
            return self._scalar.run_pairs(runner, start, stop)
        pairs: List[Tuple["TrialResult", "TrialResult"]] = []
        index = start
        while index < stop:
            chunk_stop = min(stop, index + CHUNK_LANES)
            pairs.extend(self._run_chunk(runner, index, chunk_stop))
            index = chunk_stop
        return pairs

    # ------------------------------------------------------------------
    def _static_fallback_reason(self, runner: "AttackRunner") -> Optional[str]:
        """Config-level reasons the engine cannot host this cell.

        These are the *known* unsupported shapes, reported with a
        stable human-readable reason; anything subtler is caught at
        run time by the engine's divergence guards instead.
        """
        config = runner.config
        if config.channel is ChannelType.VOLATILE:
            return "channel volatile needs SMT co-runners"
        if callable(config.predictor):
            return "custom predictor factories have no lane-uniform form"
        if str(config.predictor) not in _VECTOR_PREDICTORS:
            return (
                f"predictor {config.predictor!r} has no lane-uniform form"
            )
        memory_config = config.memory_config
        if (
            memory_config is not None
            and memory_config.replacement_policy != "lru"
        ):
            return (
                f"replacement policy {memory_config.replacement_policy!r} "
                "draws per-trial randomness into cache structure"
            )
        return None

    def _journal(self, runner: "AttackRunner", reason: str) -> None:
        config = runner.config
        predictor = (
            config.predictor
            if isinstance(config.predictor, str)
            else getattr(config.predictor, "__name__", "custom")
        )
        cell = (
            f"{runner.variant.name}/{config.channel.value}"
            f"/vp={predictor}"
            f"/defense={config.defense.name if config.defense else 'none'}"
            f"/seed={config.seed}"
        )
        journal_fallback(cell, reason)

    # ------------------------------------------------------------------
    def _run_chunk(
        self, runner: "AttackRunner", start: int, stop: int
    ) -> List[Tuple["TrialResult", "TrialResult"]]:
        """One chunk, vectorized; any failure replays it on scalar."""
        indices = range(start, stop)
        try:
            mapped_rows, mapped_cycles = self._run_batch(
                runner, True, indices
            )
            unmapped_rows, unmapped_cycles = self._run_batch(
                runner, False, indices
            )
        except (KeyboardInterrupt, SystemExit):  # pragma: no cover
            raise
        except Exception as exc:
            # LaneDivergence mostly; but *any* vectorized failure is
            # recoverable the same way, and a genuine configuration or
            # simulation error will re-raise from the scalar replay
            # with its authentic scalar behavior.
            self._journal(runner, f"{type(exc).__name__}: {exc}")
            COUNTERS.batched_fallback_trials += 2 * len(indices)
            return self._scalar.run_pairs(runner, start, stop)
        # Commit only after both hypotheses vectorized cleanly, so a
        # fallen-back chunk contributes exactly its scalar accounting.
        lanes = len(indices)
        COUNTERS.trials += 2 * lanes
        COUNTERS.batched_vector_trials += 2 * lanes
        COUNTERS.simulated_cycles += mapped_cycles + unmapped_cycles
        return list(zip(mapped_rows, unmapped_rows))

    def _run_batch(
        self,
        runner: "AttackRunner",
        mapped: bool,
        indices: Sequence[int],
    ) -> Tuple[List["TrialResult"], int]:
        """All of one hypothesis's trials in the chunk, in lockstep.

        Lane ``k`` runs trial ``indices[k]`` under its scalar trial
        seed.  Returns ``(rows, cycles)``: one row per lane, in
        ``indices`` order, and the pass's simulated cycles — a count,
        not the machine, so none outlives its pass.
        """
        from repro.core.attack import (
            TrialResult, attack_dram_config, trial_seed,
        )

        lockstep = self._lockstep
        config = runner.config
        seeds = [trial_seed(config.seed, mapped, i) for i in indices]
        base_memory = config.memory_config or MemoryConfig(
            dram=attack_dram_config()
        )
        shared_region = (
            config.layout.probe_base,
            config.layout.probe_lines * config.layout.probe_stride,
        )
        predictor = runner._fresh_predictor(seeds[0])
        machine = lockstep.LockstepMachine(
            core_config=runner._core_config(),
            memory_config=replace(base_memory, seed=seeds[0]),
            predictor=predictor,
            lane_seeds=seeds,
            shared_region=shared_region,
        )
        env = runner._env_around(machine.mem, lockstep.LaneCore(machine))
        try:
            # Each lane models a fresh machine under its own trial seed;
            # structural state is lane-uniform because every lane
            # executes the identical access sequence.
            runner.variant.run(env, mapped)
        except lockstep._LaneMeasurement as measured:
            values = measured.values
        else:
            raise lockstep.LaneDivergence(
                "measured window returned without a lane measurement"
            )
        sim_cycles = machine.cycle + runner.overhead_cycles()
        rows = [
            TrialResult(
                measurement=float(values[lane]),
                sim_cycles=int(sim_cycles[lane]),
            )
            for lane in range(len(seeds))
        ]
        return rows, machine.simulated_cycles
