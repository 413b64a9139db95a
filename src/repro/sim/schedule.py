"""The lane-pool scheduler: continuous batching across cell boundaries.

:class:`PoolBackend` is a drop-in :class:`~repro.sim.SimBackend` that
keeps the lockstep engine's throughput independent of how trials
arrive.  The per-cell batched backend (:mod:`repro.sim.batched`) made
one *cell* fast; a sweep still paid for every cell separately — a
fresh machine per chunk, a full re-interpretation of the same dynamic
uop trace per group-sequential look, and lane economics tied to the
dispatch width.  The pool removes all three with two shared, process-
global resources:

* **Tape cache** (compatibility grouping + refill).  The first
  multi-batch dispatch of a program shape runs once under a
  :class:`~repro.sim.tape.TapeRecorder`; every later compatible
  dispatch — the same cell's next interim look, another cell with the
  same shape, another ``repro serve`` job's trials — is admitted into
  that one recorded lockstep pass by *replaying* the tape under the
  new per-lane seed schedule.  Replay has no machine, no fixed lane
  width and no per-column interpretation, so the scheduler admits
  exactly the trials the next look demands (1 lane or 128) and every
  ``TrialResult`` stays byte-identical to the per-cell batched
  backend regardless of admission order or width: the result is a
  pure function of the trial seed, and the seed schedule is the one
  thing the pool never changes.
* **Warm-machine pool.**  Passes that must run interpretively (tape
  miss, non-tapeable shapes like the persistent channel's predictor
  lane split or the R defense's per-trial window draws, or a guard
  divergence) reuse a pooled
  :class:`~repro.memory.hierarchy.MemorySystem` via the byte-exact
  ``reset(seed)`` protocol instead of rebuilding caches per chunk.
  A pooled hierarchy is checked out for the duration of a pass and
  returned only after clean completion, so a mid-pass failure can
  never leak corrupt structural state into a later cell.

Demand-driven admission is structural: :meth:`PoolBackend.run_pairs`
dispatches exactly the ``start..stop`` range the sequential engine's
next look pulled — never padding lanes with speculative trials beyond
a cell's next undecided look boundary — and
:meth:`PoolBackend.note_early_stop` accounts the trials a
fill-the-vector scheduler would have burnt
(``COUNTERS.pool_trials_clipped``).  Occupancy is therefore exact by
construction (``pool_lanes_filled == pool_lanes_offered``); the
counters exist so CI can assert the invariant holds rather than trust
it.

Fallback semantics are inherited, not reimplemented: the pool
subclasses :class:`~repro.sim.batched.BatchedBackend` and only
overrides how one hypothesis's pass executes, so any vectorized
failure still falls the whole chunk back to the scalar backend with
the same journal entry and counter accounting the batched backend
gives.  A tape can only make the right answer cheaper, never a wrong
answer possible: replay re-checks every recorded guard and a
divergence falls back to a fresh interpretive pass.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.perf.counters import COUNTERS
from repro.sim.batched import BatchedBackend, _trial_seed
from repro.sim.tape import (
    ReplayDivergence,
    ReplayResult,
    Tape,
    TapeInvalid,
    TapeRecorder,
    replay,
)

__all__ = ["PoolBackend", "pool_backend"]


def _simple(value: Any) -> bool:
    return isinstance(value, (type(None), bool, int, float, str))


def _defense_key(defense: Any) -> Tuple[Any, ...]:
    """A stable identity for the defense's behaviour, if one exists.

    Config-only defenses — every built-in single defense, R included,
    whose per-trial streams derive from the trial seed — expose nothing
    but simple attributes, so their class plus sorted attribute values
    names the behaviour exactly.  Anything holding live state (a
    component list, a wrapped predictor) gets an ``id``-based key: the
    tape is then shared only across dispatches of the *same* defense
    object — which still covers every look of one cell, the dominant
    reuse — and the object is pinned by the caller so the id cannot be
    recycled.
    """
    if defense is None:
        return ("none",)
    attrs = vars(defense)
    # Live state may hide behind private names, so the
    # *classification* looks at every attribute; only the public,
    # simple ones form the value key.
    if all(_simple(value) for value in attrs.values()):
        return ("cfg", type(defense).__name__, tuple(
            (name, value)
            for name, value in sorted(attrs.items())
            if not name.startswith("_")
        ))
    return ("id", id(defense))


class PoolBackend(BatchedBackend):
    """Cross-cell continuous batching over the lockstep engine."""

    name = "pool"

    #: AttackConfig fields excluded from the compatibility key.
    #: ``seed``/``n_runs`` parameterize the seed schedule and budget,
    #: not the recorded pass; the ``sync_*``/``decode_*`` costs are
    #: applied to the replayed cycle vector per cell; ``backend`` is
    #: how the trial reached us; ``defense``/``memory_config`` get
    #: structured keys of their own.
    _KEY_EXCLUDED = frozenset({
        "seed", "n_runs", "backend", "defense", "memory_config",
        "sync_base_cycles", "sync_phase_cycles",
        "decode_cycles_per_line",
    })

    def __init__(self) -> None:
        super().__init__()
        self._tapes: Dict[Tuple[Any, ...], Tape] = {}
        self._norecord: Set[Tuple[Any, ...]] = set()
        #: Strong references behind ``("id", ...)`` defense keys, so a
        #: garbage-collected defense cannot hand its id to a stranger.
        self._pins: Dict[int, Any] = {}
        self._mems: Dict[Tuple[Any, ...], Any] = {}
        #: Memoized compatibility keys per live config object.  The
        #: config is stored in the value, which both pins its id and
        #: lets the hit path verify identity before trusting the key.
        self._key_cache: Dict[Tuple[int, bool], Tuple[Any, Tuple[Any, ...]]] = {}

    def reset(self) -> None:
        """Drop all pooled state (tests and long-lived daemons)."""
        self._tapes.clear()
        self._norecord.clear()
        self._pins.clear()
        self._mems.clear()
        self._key_cache.clear()

    # -- compatibility grouping -----------------------------------------
    def _compat_key(
        self, runner: "Any", mapped: bool
    ) -> Tuple[Any, ...]:
        """What must match for two dispatches to share one pass.

        Everything that shapes the dynamic uop trace or the recorded
        constants: the variant's program, the channel/layout/core
        parameters, the (seed-masked) memory geometry and the defense
        behaviour.

        Memoized per live config object: AttackConfig is frozen for
        the life of a cell and a sequential cell dispatches hundreds
        of passes with the same config, so the repr-heavy key is built
        once per (config, hypothesis) rather than per pass.
        """
        config = runner.config
        cache_slot = (id(config), mapped)
        hit = self._key_cache.get(cache_slot)
        if hit is not None and hit[0] is config:
            return hit[1]
        fields = tuple(
            (f.name, repr(getattr(config, f.name)))
            for f in dataclasses.fields(config)
            if f.name not in self._KEY_EXCLUDED
        )
        memory_config = config.memory_config
        mem_key = (
            None if memory_config is None
            else repr(dataclasses.replace(memory_config, seed=0))
        )
        defense_key = _defense_key(config.defense)
        if defense_key[0] == "id":
            self._pins[id(config.defense)] = config.defense
        key = (runner.variant.name, mapped, fields, mem_key, defense_key)
        self._key_cache[cache_slot] = (config, key)
        return key

    # -- warm-machine pool ----------------------------------------------
    def _mem_key(self, runner: "Any") -> Tuple[Any, ...]:
        config = runner.config
        memory_config = config.memory_config
        shared_region = (
            config.layout.probe_base,
            config.layout.probe_lines * config.layout.probe_stride,
        )
        return (
            None if memory_config is None
            else repr(dataclasses.replace(memory_config, seed=0)),
            shared_region,
        )

    def _checkout_mem(self, runner: "Any") -> Tuple[Any, Any]:
        """Pop a warm hierarchy for this pass, or None to build fresh.

        Checked out, not borrowed: the entry leaves the pool and is
        returned by :meth:`_checkin_mem` only after the pass completed
        cleanly, so an exception mid-pass (divergence, watchdog, tape
        abort) simply never returns the now-suspect hierarchy.
        """
        key = self._mem_key(runner)
        mem = self._mems.pop(key, None)
        if mem is not None:
            COUNTERS.pool_warm_mems += 1
        return key, mem

    def _checkin_mem(self, key: Tuple[Any, ...], machine: Any) -> None:
        self._mems[key] = machine.mem

    # -- demand accounting ----------------------------------------------
    def note_early_stop(self, runner: "Any", trials_done: int) -> None:
        """A sequential cell stopped with budget left: count the save.

        The trials a fill-every-lane scheduler would have already
        dispatched past the decisive look — one full chunk's worth per
        hypothesis, clipped to the cell's fixed-N budget — were never
        admitted, because admission is demand-driven.
        """
        from repro.sim.batched import CHUNK_LANES

        n_max = runner.config.n_runs
        COUNTERS.pool_trials_clipped += 2 * max(
            0, min(CHUNK_LANES, n_max) - trials_done
        )

    # -- the per-hypothesis pass ----------------------------------------
    def _run_batch(
        self,
        runner: "Any",
        mapped: bool,
        indices: Sequence[int],
        seeds: Optional[Sequence[int]] = None,
        mem: Any = None,
        tape: Any = None,
    ) -> Tuple[List["Any"], Any, Any]:
        config = runner.config
        if seeds is None:
            seeds = [_trial_seed(config, mapped, i) for i in indices]
        lanes = len(seeds)
        COUNTERS.pool_lanes_offered += lanes
        key = self._compat_key(runner, mapped)
        cached = self._tapes.get(key)
        if cached is not None:
            try:
                rows = self._replay_rows(runner, cached, seeds)
            except ReplayDivergence:
                COUNTERS.pool_replay_divergences += 1
            else:
                COUNTERS.pool_passes_replayed += 1
                COUNTERS.pool_lane_refills += lanes
                COUNTERS.pool_lanes_filled += lanes
                return rows
        rows_m = self._interpret(runner, mapped, indices, seeds, key)
        COUNTERS.pool_lanes_filled += lanes
        return rows_m

    def _interpret(
        self,
        runner: "Any",
        mapped: bool,
        indices: Sequence[int],
        seeds: Sequence[int],
        key: Tuple[Any, ...],
    ) -> Tuple[List["Any"], Any, Any]:
        """A real lockstep pass on a warm hierarchy, recording if due.

        Recording pays a one-time tracing overhead, so it happens only
        when a later compatible dispatch exists to amortize it: the
        dispatch does not already cover the cell's whole fixed-N
        budget (a sequential cell's first look, or the first chunk of
        a >128-trial cell).  A pass the tape cannot express aborts
        loudly mid-flight, poisons whatever it touched (the checked-
        out hierarchy simply is not returned) and re-runs untaped.
        """
        mem_key, mem = self._checkout_mem(runner)
        record = (
            key not in self._norecord
            and len(seeds) >= 2
            and (indices[0] > 0 or len(seeds) < runner.config.n_runs)
        )
        if record:
            recorder = TapeRecorder(len(seeds))
            try:
                rows, machine, values = super()._run_batch(
                    runner, mapped, indices, seeds=seeds,
                    mem=self._reset_mem(mem, seeds),
                    tape=recorder,
                )
            except TapeInvalid:
                COUNTERS.pool_tapes_invalid += 1
                self._norecord.add(key)
                mem = None  # mid-pass abort: hierarchy is suspect
            else:
                tape = recorder.finalize(values, machine.cycle)
                tape.compiled()  # codegen now, not on the first replay
                self._tapes[key] = tape
                COUNTERS.pool_passes_recorded += 1
                self._checkin_mem(mem_key, machine)
                return rows, machine, values
        rows, machine, values = super()._run_batch(
            runner, mapped, indices, seeds=seeds,
            mem=self._reset_mem(mem, seeds),
        )
        self._checkin_mem(mem_key, machine)
        return rows, machine, values

    def _reset_mem(self, mem: Any, seeds: Sequence[int]) -> Any:
        """Reset a checked-out hierarchy to this pass's machine seed."""
        if mem is None:
            return None
        mem.reset(seeds[0])
        return mem

    def _replay_rows(
        self, runner: "Any", tape: Tape, seeds: Sequence[int]
    ) -> Tuple[List["Any"], ReplayResult, np.ndarray]:
        """Rows for one hypothesis straight off the tape, no machine.

        Mirrors the tail of ``BatchedBackend._run_batch``: the
        modelled synchronisation and decode costs are per-cell
        constants applied *after* the pass, which is why cells with
        different cost models can still share a tape.
        """
        from repro.core.attack import TrialResult
        from repro.core.channels import ChannelType

        config = runner.config
        default_seeds = np.asarray(
            [s & 0xFFFFFFFFFFFFFFFF for s in seeds], dtype=np.uint64
        )
        out = replay(tape, seeds, default_seeds)
        sim_cycles = (
            out.final_cycle
            + config.sync_base_cycles
            + config.sync_phase_cycles * runner.variant.num_phases
        )
        if config.channel is ChannelType.PERSISTENT:
            sim_cycles = sim_cycles + (
                config.decode_cycles_per_line * config.layout.probe_lines
            )
        rows = [
            TrialResult(
                measurement=float(out.measurement[lane]),
                sim_cycles=int(sim_cycles[lane]),
            )
            for lane in range(len(seeds))
        ]
        return rows, out, out.measurement


_POOL: Optional[PoolBackend] = None


def pool_backend() -> PoolBackend:
    """The process-global pool (tapes and warm machines are shared).

    A singleton by design: every :class:`AttackRunner` resolves its
    backend eagerly, and the whole point of the pool is that runners —
    including ones serving different ``repro serve`` jobs — admit
    their trials through the *same* tape cache and machine pool.
    """
    global _POOL
    if _POOL is None:
        _POOL = PoolBackend()
    return _POOL
