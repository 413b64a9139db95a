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
an aspiration: a scalar trial is a pure function of its seed, the two
protocols' seed schedules are replicated exactly (per-lane trial seeds
for the default warm/cold protocol; a uniform prologue seed followed by
per-lane ``reseed_jitter`` for the snapshot protocol), and anything the
lockstep engine cannot prove schedule-exact and lane-uniform raises
:class:`~repro.sim.lockstep.LaneDivergence`.  Lanes that only disagree
on a per-trial draw (the R defense's window offsets, or post-split
predictions) raise :class:`~repro.sim.lockstep.LanePartition` instead:
the hypothesis's lanes re-run as one batch per group of agreeing lanes
and the rows merge back in lane order, which is exact because a batch
may hold any subset of a cell's trials.  Divergence — or *any*
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
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

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


def _trial_seed(config: Any, mapped: bool, index: int) -> int:
    """The scalar seed schedule (``AttackRunner.run_trial``), verbatim."""
    return config.seed * 1_000_003 + index * 7919 + (1 if mapped else 0)


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
        #: (cell, reason) tuples for every fallback this backend took;
        #: the process-global journal gets the same records.
        self.fallback_events: List[Tuple[str, str]] = []

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
        if config.audit_snapshots:
            return "snapshot auditing replays each trial cold by design"
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
        self.fallback_events.append((cell, reason))

    # ------------------------------------------------------------------
    def _run_chunk(
        self, runner: "AttackRunner", start: int, stop: int
    ) -> List[Tuple["TrialResult", "TrialResult"]]:
        """One chunk, vectorized; any failure replays it on scalar."""
        indices = range(start, stop)
        try:
            mapped_rows, mapped_totals = self._run_grouped(
                runner, True, indices
            )
            unmapped_rows, unmapped_totals = self._run_grouped(
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
            COUNTERS.batched_fallback_chunks += 1
            COUNTERS.batched_fallback_trials += 2 * len(indices)
            return self._scalar.run_pairs(runner, start, stop)
        # Commit only after both hypotheses vectorized cleanly, so a
        # fallen-back chunk contributes exactly its scalar accounting.
        lanes = len(indices)
        COUNTERS.trials += 2 * lanes
        COUNTERS.batched_chunks += 1
        COUNTERS.batched_vector_trials += 2 * lanes
        for cycles, retired, squashed in (mapped_totals, unmapped_totals):
            COUNTERS.simulated_cycles += cycles
            COUNTERS.batched_lane_cycles += cycles
            COUNTERS.batched_lanes_retired += retired
            COUNTERS.batched_lanes_squashed += squashed
        return list(zip(mapped_rows, unmapped_rows))

    def _run_grouped(
        self, runner: "AttackRunner", mapped: bool, indices: Sequence[int]
    ) -> Tuple[List["TrialResult"], Tuple[int, int, int]]:
        """One hypothesis's trials, regrouped on every lane partition.

        Returns the rows in ``indices`` order and the passes' summed
        ``(simulated cycles, retired, squashed)`` totals — counters,
        not machines, so no sub-batch machine outlives its pass.  Each
        group re-runs from the start, replays the draws its lanes agree
        on, and recurses on later splits; a one-lane batch never
        partitions, so the recursion ends.
        """
        try:
            rows, machine, _ = self._run_batch(runner, mapped, indices)
        except self._lockstep.LanePartition as request:
            COUNTERS.batched_partitions += 1
            groups: Dict[Any, List[int]] = {}
            for index, key in zip(indices, request.keys):
                groups.setdefault(key, []).append(index)
            by_index: Dict[int, "TrialResult"] = {}
            totals = [0, 0, 0]
            for group in groups.values():
                group_rows, group_totals = self._run_grouped(
                    runner, mapped, group
                )
                by_index.update(zip(group, group_rows))
                totals = [a + b for a, b in zip(totals, group_totals)]
            cycles, retired, squashed = totals
            return [by_index[i] for i in indices], (cycles, retired, squashed)
        return rows, (
            machine.simulated_cycles, machine.total_retired,
            machine.total_squashes,
        )

    def _run_batch(
        self,
        runner: "AttackRunner",
        mapped: bool,
        indices: Sequence[int],
        seeds: Optional[Sequence[int]] = None,
        mem: Any = None,
        tape: Any = None,
    ) -> Tuple[List["TrialResult"], Any, Any]:
        """All of one hypothesis's trials in the chunk, in lockstep.

        ``seeds`` overrides the per-runner trial-seed schedule (the
        lane pool fuses compatible cells' trials into one pass, so one
        runner's pass may carry foreign seeds); ``mem`` supplies an
        already-reset warm memory system and ``tape`` a
        :class:`~repro.sim.tape.TapeRecorder` — both pool mechanisms,
        inert for per-cell batched execution.  Returns ``(rows,
        machine, measurement)`` where the measurement is the raw lane
        vector (a traced vector under recording) the rows were built
        from.
        """
        from repro.core.attack import TrialResult, attack_dram_config

        lockstep = self._lockstep
        config = runner.config
        if seeds is None:
            seeds = [_trial_seed(config, mapped, i) for i in indices]
        else:
            seeds = list(seeds)
        base_memory = config.memory_config or MemoryConfig(
            dram=attack_dram_config()
        )
        shared_region = (
            config.layout.probe_base,
            config.layout.probe_lines * config.layout.probe_stride,
        )
        snapshot_mode = config.snapshot_trials
        machine_seed = (
            runner._prologue_seed(mapped) if snapshot_mode else seeds[0]
        )
        predictor = runner._fresh_predictor(machine_seed)
        machine = lockstep.LockstepMachine(
            core_config=runner._core_config(),
            memory_config=replace(base_memory, seed=machine_seed),
            predictor=predictor,
            lane_seeds=seeds,
            shared_region=shared_region,
            mem=mem,
            tape=tape,
        )
        env = runner._env_around(machine.mem, lockstep.LaneCore(machine))
        try:
            if snapshot_mode:
                # The snapshot protocol: one prologue under the fixed
                # per-hypothesis seed with a single shared stream set
                # (every scalar fork shares that one prologue's draws),
                # then per-lane trial streams for the measured window —
                # exactly the scalar fork's per-trial re-seed.
                machine.use_uniform_streams(machine_seed)
                runner.variant.run_prologue(env, mapped)
                machine.use_lane_streams(seeds)
                runner.variant.run_measured(env, mapped)
            else:
                # The default protocol: each lane models a fresh
                # machine under its own trial seed — per-lane jitter
                # and predictor streams from the start and per-lane
                # backing-store defaults; structural state is
                # lane-uniform because every lane executes the
                # identical access sequence.
                machine.set_lane_default_seeds(seeds)
                runner.variant.run(env, mapped)
        except lockstep._LaneMeasurement as measured:
            values = measured.values
        else:
            raise lockstep.LaneDivergence(
                "measured window returned without a lane measurement"
            )
        sim_cycles = (
            machine.cycle
            + config.sync_base_cycles
            + config.sync_phase_cycles * runner.variant.num_phases
        )
        if config.channel is ChannelType.PERSISTENT:
            # The modelled decode cost (`AttackRunner._finish_trial`):
            # the receiver reloads the full probe range per trial.
            sim_cycles = sim_cycles + (
                config.decode_cycles_per_line * config.layout.probe_lines
            )
        rows = [
            TrialResult(
                measurement=float(values[lane]),
                sim_cycles=int(sim_cycles[lane]),
            )
            for lane in range(len(seeds))
        ]
        return rows, machine, values
