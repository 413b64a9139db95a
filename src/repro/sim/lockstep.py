"""Structure-of-arrays lockstep engine for the batched backend.

One :class:`LockstepMachine` simulates **many trials of the same cell
program at once**.  Trials of one hypothesis batch execute the exact
same dynamic uop trace (straight-line programs, no data-dependent
control flow in the native envelope), so the machine keeps *structural*
state — caches, TLB, the value predictor — once, shared by every lane,
and keeps *per-lane* state — cycle schedules, jitter RNG streams,
default memory values — as numpy ``[lanes]`` vectors.

Instead of stepping cycles, the engine makes a single forward pass
over the dynamic trace in dispatch order and computes each column's
dispatch / issue / value-ready / complete / retire cycles as max-plus
recurrences that are provably equal to the scalar core's greedy
schedule (see ``docs/ARCHITECTURE.md`` §14 for the derivation):

* dispatch: ``D[n] = max(D[n-1], D[n-fetch_width] + 1, stall,
  R[last FENCE], R[n-rob_size])`` — in-order, width-limited, stalled
  after squashes, gated by fences and ROB occupancy (commit precedes
  dispatch within a cycle, so the ``R`` terms allow equality);
* issue: ``I = max(D + 1, producers' value-ready)`` (the scalar issue
  stage runs before dispatch in a cycle, hence the ``+1``; consumers
  may issue the same cycle a producer's value becomes ready), with
  memory ops additionally chained in program order through the two
  memory ports: ``I_mem[k] >= max(I_mem[k-1], I_mem[k-2] + 1)``;
* retire: ``R[n] = max(C[n], R[n-1], R[n-commit_width] + 1)``;
  serialising ops (FENCE/RDTSC) execute at the ROB head instead:
  ``C = VR = R = max(R[n-1], D + 1, R[n-commit_width] + 1)``.

The recurrences assume the *unconstrained* schedule never oversubscribes
the issue width or the ALU/MUL ports; a post-hoc sorted-issue-cycle
check verifies that per lane and raises :class:`LaneDivergence` when
it would bind (greedy-with-caps then differs from unconstrained, so the
chunk is replayed on the scalar backend — never silently wrong).

Beyond the straight-line schedule, the engine models the scalar core's
out-of-envelope machinery in lane-uniform form:

* **Squash windows execute transiently.**  A mispredicted load's
  younger window (up to the next FENCE) is replayed against a rename
  *overlay* seeded with the predicted value; each transient op's
  dispatch/issue cycles follow the same recurrences, and an op is
  "issued" only when its issue cycle precedes the squash cycle in
  *every* lane (a straddle diverges).  Transient loads walk the real
  caches — the persistent channel's footprint — and enqueue *masked*
  trainings (a lane trains only where the load completed before the
  squash).  A transient op whose issue never happens blocks all
  younger transient memory ops, exactly like the scalar issue stage's
  ``memory_blocked``.
* **The training ledger is masked and order-free.**  Pending trainings
  carry per-lane completion vectors, optional per-lane masks, and a
  sequence number; they apply in ``(completion, seq)`` order.  While
  the order and values are lane-uniform the one shared predictor
  suffices; the first non-uniform application *splits* the predictor
  into per-lane deepcopies and replays each lane's schedule
  independently.  Per-lane predictions that disagree partition the
  batch (below).
* **Deferred fills are an event queue.**  Under the D defense a
  speculative load's fill waits for its speculation source's verify
  cycle; under InvisiSpec every load's fill waits for its retire
  cycle.  The engine records ``(cycle vector, paddr)`` events and
  applies them to the shared hierarchy before every later structural
  access whose issue is past the event in every lane (a straddle, or
  a cross-lane reorder of two events, diverges).
* **Per-trial predictor streams draw per lane; disagreement
  partitions.**  Every trial is a pure function of its seed, the R
  defense's window draws included: lane ``k`` draws from the stream
  :func:`~repro.vp.base.trial_stream` derives from its own trial seed
  (after a lane split, replica ``k`` owns that stream).  When one draw
  — or one post-split prediction — differs between lanes, the engine
  raises :class:`LanePartition` with one key per lane; the backend
  re-runs each group of agreeing lanes as its own batch and merges the
  rows back in lane order.  Exact by construction, since a batch may
  hold any subset of a cell's trials.

Everything the engine cannot prove lane-uniform or schedule-exact —
stores, non-uniform addresses, nested speculation, SMT co-runners,
cycle-budget proximity — raises
:class:`LaneDivergence` the same way.  Correctness never depends on
the eligibility analysis being complete, only on these runtime guards
being conservative.

Measurements leave the engine through a deliberate trap:
:class:`LaneCore` quacks like :class:`repro.pipeline.core.Core` for the
variant orchestration code, but its :class:`LaneRunResult` wraps cycle
vectors in :class:`_LaneInt`, whose ``float()`` — the last operation of
every variant's measured window — raises :class:`_LaneMeasurement`
carrying the per-lane measurement vector.  The real Table II variant
code therefore runs unmodified, and a measured window that returns
*without* raising took a path the engine does not model — which is
itself treated as a divergence.
"""

from __future__ import annotations

import copy
import random
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.isa.instructions import AluOp, Instruction, Opcode
from repro.memory.address import line_address
from repro.memory.hierarchy import MemoryConfig, MemorySystem
from repro.memory.memsys import _splitmix64
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import EA_MASK, _alu_compute
from repro.sim.tape import TV, TapeInvalid, TapeRecorder
from repro.vp.base import AccessKey, Prediction, ValuePredictor, trial_stream
from repro.vp.nopred import NoPredictor

_VALUE_MASK = (1 << 64) - 1

#: Sentinel issue cycle for transient ops that never issue before the
#: squash: far beyond any real schedule, so anything chained after it
#: classifies as "not issued" in every lane.
_FAR = 1 << 62

#: SplitMix64 constants, as unsigned 64-bit numpy scalars.
_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_MUL2 = np.uint64(0x94D049BB133111EB)


class LaneDivergence(Exception):
    """The batch left the engine's provably-exact envelope.

    Not a :class:`~repro.errors.ReproError`: this is internal control
    flow of the batched backend (the chunk transparently re-runs on the
    scalar backend), never an error surfaced to callers.
    """


class LanePartition(Exception):
    """The lanes agree up to a draw that splits them into groups.

    Raised when one per-trial random draw, or one post-split
    prediction, differs between lanes.  ``keys[k]`` is lane ``k``'s
    outcome; lanes with equal keys run on together in a sub-batch.  Like
    :class:`LaneDivergence`, internal control flow of the batched
    backend.
    """

    def __init__(self, keys: Sequence[Hashable]) -> None:
        super().__init__("lanes disagree on a per-trial draw")
        self.keys = list(keys)


class _LaneStream:
    """One randomising wrapper's per-lane streams behind one ``randint``.

    Each lane draws from its own trial's stream; a draw all lanes agree
    on is returned, a split one raises :class:`LanePartition`.  A tape
    cannot replay per-trial draws under new seeds, so recording aborts
    on the first draw.
    """

    __slots__ = ("rngs", "recording")

    def __init__(self, rngs: List[random.Random], recording: bool) -> None:
        self.rngs = rngs
        self.recording = recording

    def randint(self, low: int, high: int) -> int:
        if self.recording:
            raise TapeInvalid("per-trial predictor draws are not tapeable")
        draws = [rng.randint(low, high) for rng in self.rngs]
        head = draws[0]
        if any(draw != head for draw in draws):
            raise LanePartition(draws)
        return head


class _LaneMeasurement(Exception):
    """Carries the per-lane measurement vector out of variant code."""

    def __init__(self, values: np.ndarray) -> None:
        super().__init__("lane measurement")
        self.values = values


def _splitmix64_vec(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.memory.memsys._splitmix64` (uint64 in/out)."""
    with np.errstate(over="ignore"):
        v = (values + _SM_GAMMA).astype(np.uint64)
        v = ((v ^ (v >> np.uint64(30))) * _SM_MUL1).astype(np.uint64)
        v = ((v ^ (v >> np.uint64(27))) * _SM_MUL2).astype(np.uint64)
        return v ^ (v >> np.uint64(31))


def _alu_vec(alu_op: AluOp, lhs: object, rhs: object) -> object:
    """Vector-aware ALU evaluation matching ``_alu_compute`` per lane.

    Traced vectors must not pass through ``np.asarray`` (that would
    silently drop their tape node), so they cast via their own
    ``astype``; the ufunc arithmetic below records itself.
    """
    left = (
        lhs.astype(np.uint64) if isinstance(lhs, TV)
        else np.asarray(lhs).astype(np.uint64)
    )
    right = (
        rhs.astype(np.uint64) if isinstance(rhs, TV)
        else np.asarray(rhs).astype(np.uint64)
    )
    with np.errstate(over="ignore"):
        if alu_op is AluOp.ADD:
            result = left + right
        elif alu_op is AluOp.SUB:
            result = left - right
        elif alu_op is AluOp.XOR:
            result = left ^ right
        elif alu_op is AluOp.AND:
            result = left & right
        elif alu_op is AluOp.OR:
            result = left | right
        elif alu_op is AluOp.MUL:
            result = left * right
        elif alu_op is AluOp.SHL:
            result = left << (right & np.uint64(63))
        elif alu_op is AluOp.SHR:
            result = left >> (right & np.uint64(63))
        else:  # pragma: no cover - exhaustive over AluOp
            raise LaneDivergence(f"unhandled ALU op {alu_op}")
    return result.astype(np.uint64)


def _uniform_int(value: object, what: str) -> int:
    """Collapse a lane value to a plain int, or diverge.

    A traced vector's collapse is additionally pinned on the tape:
    the recorded constant fed structure (an address, a trained value),
    so a replay under new seeds must re-verify the collapse.
    """
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, TV):
        shadow = value.shadow
        first = shadow.flat[0]
        if not bool(np.all(shadow == first)):
            raise LaneDivergence(f"non-uniform {what} across lanes")
        value.tape.guard_uniform(value, int(first))
        return int(first)
    array = np.asarray(value)
    first = array.flat[0]
    if not bool(np.all(array == first)):
        raise LaneDivergence(f"non-uniform {what} across lanes")
    return int(first)


class _LaneInt:
    """An integer-per-lane quantity that refuses to become one float.

    Supports the arithmetic the variant layer actually performs on
    run results (subtraction for RDTSC deltas); ``float()`` raises
    :class:`_LaneMeasurement` so the measurement escapes with its full
    lane vector instead of collapsing.
    """

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray) -> None:
        self.values = values

    def __sub__(self, other: object) -> "_LaneInt":
        if isinstance(other, _LaneInt):
            return _LaneInt(self.values - other.values)
        return _LaneInt(self.values - other)  # type: ignore[operator]

    def __rsub__(self, other: object) -> "_LaneInt":
        return _LaneInt(other - self.values)  # type: ignore[operator]

    def __add__(self, other: object) -> "_LaneInt":
        if isinstance(other, _LaneInt):
            return _LaneInt(self.values + other.values)
        return _LaneInt(self.values + other)  # type: ignore[operator]

    __radd__ = __add__

    def __float__(self) -> float:
        raise _LaneMeasurement(self.values.astype(np.float64))

    def __int__(self) -> int:
        raise _LaneMeasurement(self.values.astype(np.float64))

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"_LaneInt({self.values!r})"


class LaneRunResult:
    """Per-lane analogue of :class:`repro.pipeline.trace.RunResult`."""

    __slots__ = (
        "program_name", "pid", "start_cycles", "end_cycles",
        "retired", "squashes", "rdtsc_values",
    )

    def __init__(
        self,
        program_name: str,
        pid: int,
        start_cycles: np.ndarray,
        end_cycles: np.ndarray,
        retired: int,
        squashes: int,
        rdtsc_values: List[Tuple[int, _LaneInt]],
    ) -> None:
        self.program_name = program_name
        self.pid = pid
        self.start_cycles = start_cycles
        self.end_cycles = end_cycles
        self.retired = retired
        self.squashes = squashes
        #: ``(pc, _LaneInt)`` pairs: consumers that subtract two
        #: readings (directly or via ``probe_latencies_from_rdtsc``)
        #: get a :class:`_LaneInt` back, so the eventual ``float()``
        #: raises the lane measurement instead of a TypeError.
        self.rdtsc_values = rdtsc_values

    @property
    def cycles(self) -> _LaneInt:
        """Per-lane run length (``end - start``), as a lane vector."""
        return _LaneInt(self.end_cycles - self.start_cycles)

    def rdtsc_delta(self, first: int = 0, second: int = 1) -> _LaneInt:
        """Per-lane difference between two RDTSC readings."""
        if len(self.rdtsc_values) <= max(first, second):
            raise LaneDivergence(
                f"program {self.program_name} recorded "
                f"{len(self.rdtsc_values)} RDTSC values, need {second + 1}"
            )
        return self.rdtsc_values[second][1] - self.rdtsc_values[first][1]


class LaneCore:
    """Quacks like :class:`~repro.pipeline.core.Core` for variant code."""

    __slots__ = ("machine",)

    def __init__(self, machine: "LockstepMachine") -> None:
        self.machine = machine

    @property
    def cycle(self) -> _LaneInt:
        """Per-lane global cycle counter (monotonic across runs)."""
        return _LaneInt(self.machine.cycle)

    def run(self, program: object) -> LaneRunResult:
        """Execute one program across every lane in lockstep."""
        return self.machine.run_program(program)

    def run_concurrent(self, programs: Sequence[object]) -> List[LaneRunResult]:
        """Single-program degenerate form only; SMT diverges."""
        if len(programs) != 1:
            raise LaneDivergence(
                "concurrent SMT contexts (volatile channel) are not "
                "lane-vectorizable"
            )
        return [self.machine.run_program(programs[0])]


class _Col:
    """Schedule of one dynamic uop column across all lanes."""

    __slots__ = ("D", "I", "VR", "C", "R", "result", "seq", "spec_col",
                 "pred_load")

    def __init__(self) -> None:
        self.D: Optional[np.ndarray] = None
        self.I: Optional[np.ndarray] = None
        self.VR: Optional[np.ndarray] = None
        self.C: Optional[np.ndarray] = None
        self.R: Optional[np.ndarray] = None
        self.result: object = None
        #: Program-order position; ordering key for speculation sources.
        self.seq: int = -1
        #: Youngest unverified predicted-load ancestor at issue time
        #: (only tracked when the D defense is active).
        self.spec_col: Optional["_Col"] = None
        #: True for loads that issued with a value prediction.
        self.pred_load: bool = False


class _PendingTrain:
    """One predictor training event waiting for its completion cycle.

    ``complete`` is a per-lane vector; ``value`` may be a per-lane
    vector (resolved at application time); ``mask`` — when not None —
    limits the training to the lanes where it is True (transient loads
    train only where they completed before the squash); ``seq`` breaks
    completion-cycle ties in enqueue order, mirroring the scalar
    core's ``(complete_cycle, seq)`` verification order; ``done``
    tracks per-lane application once the predictor has split.
    """

    __slots__ = ("complete", "key", "value", "prediction", "mask", "seq",
                 "done")

    def __init__(
        self,
        complete: np.ndarray,
        key: AccessKey,
        value: object,
        prediction: Optional[Prediction],
        mask: Optional[np.ndarray],
        seq: int,
        done: Optional[np.ndarray],
    ) -> None:
        self.complete = complete
        self.key = key
        self.value = value
        self.prediction = prediction
        self.mask = mask
        self.seq = seq
        self.done = done


class _FillEvent:
    """A cache/TLB fill deferred to a future per-lane cycle vector."""

    __slots__ = ("cycle", "paddr", "pid", "vaddr")

    def __init__(
        self, cycle: np.ndarray, paddr: int, pid: int, vaddr: int
    ) -> None:
        self.cycle = cycle
        self.paddr = paddr
        self.pid = pid
        self.vaddr = vaddr


class LockstepMachine:
    """Lockstep simulation of many same-program trials (one hypothesis).

    Args:
        core_config: Effective core configuration (defense-adjusted).
        memory_config: Effective memory configuration; its ``seed``
            only matters when :meth:`set_lane_default_seeds` is not
            used (snapshot protocol: the uniform prologue seed).
        predictor: The shared value predictor chain.  Its state stays
            lane-uniform as long as every applied training is uniform;
            the first non-uniform training splits it into per-lane
            replicas.  Its random streams are rebound per lane.
        lane_seeds: Per-lane trial seeds (jitter streams start here).
        shared_region: ``(base, size)`` registered on the private
            memory system, mirroring ``AttackRunner._machine``.
        mem: An already-reset warm :class:`MemorySystem` to reuse
            instead of constructing one (the lane pool's warm-machine
            protocol).  The caller guarantees it was built from an
            equal ``memory_config``/``shared_region`` and reset to
            ``memory_config.seed`` — byte-identical to fresh
            construction per ``MemorySystem.reset``'s contract.
        tape: When set, the pass records itself onto this
            :class:`~repro.sim.tape.TapeRecorder` (see
            :mod:`repro.sim.tape`); per-lane jitter draws and lane
            defaults come back as traced vectors whose arithmetic and
            guard collapses self-record.
    """

    def __init__(
        self,
        core_config: CoreConfig,
        memory_config: MemoryConfig,
        predictor: ValuePredictor,
        lane_seeds: Sequence[int],
        shared_region: Tuple[int, int],
        mem: Optional[MemorySystem] = None,
        tape: Optional[TapeRecorder] = None,
    ) -> None:
        self.lanes = len(lane_seeds)
        self.config = core_config
        if mem is None:
            self.mem = MemorySystem(memory_config)
            self.mem.add_shared_region(*shared_region)
        else:
            self.mem = mem
        self.tape = tape
        self.predictor = predictor
        #: A bare NoPredictor ignores the trained value (train only
        #: bumps an aggregate counter that never reaches a result), so
        #: non-uniform train values need no collapse and no lane split.
        self._train_value_blind = type(predictor) is NoPredictor
        self.cycle = np.zeros(self.lanes, dtype=np.int64)
        self.simulated_cycles = 0
        self.total_retired = 0
        self.total_squashes = 0
        self._pending_trains: List[_PendingTrain] = []
        self._train_seq = 0
        #: Per-lane predictor replicas after a lane split; None while
        #: the single shared chain is still exact.
        self._split: Optional[List[ValuePredictor]] = None
        #: The shared chain's per-lane streams, one per randomising
        #: wrapper; a lane split hands lane ``k``'s to replica ``k``.
        self._lane_streams: List[_LaneStream] = []
        #: Per-lane max applied-training completion, for the consult
        #: ordering guard.
        self._applied_max: Optional[np.ndarray] = None
        #: Deferred cache/TLB fills (D defense, InvisiSpec).
        self._fill_events: List[_FillEvent] = []
        #: Per-lane default backing values; None means "use the shared
        #: MemorySystem's own seed" (lane-uniform, snapshot protocol).
        self._lane_default_seeds: Optional[np.ndarray] = None
        self._rng_mem: List[random.Random] = []
        self._rng_dram: List[random.Random] = []
        self.use_lane_streams(lane_seeds)

    # -- jitter stream control -----------------------------------------
    def use_lane_streams(self, lane_seeds: Sequence[int]) -> None:
        """Per-lane trial streams, exactly the scalar per-trial re-seed.

        Lane ``k`` draws L2 jitter from ``Random(seed_k ^ 0xC0FFEE)``
        and DRAM latency from ``Random(seed_k ^ 0x33)`` — the streams a
        scalar machine reset (or jitter-reseeded) under ``seed_k``
        would use — and its predictor draws from the chain's
        :func:`~repro.vp.base.trial_stream` under ``seed_k``.
        """
        if len(lane_seeds) != self.lanes:
            raise SimulationError("lane seed count changed mid-batch")
        self._uniform_streams = False
        self._rng_mem = [random.Random(s ^ 0xC0FFEE) for s in lane_seeds]
        self._rng_dram = [random.Random(s ^ 0x33) for s in lane_seeds]
        if self._split is not None:
            # A uniform prologue never splits; replicas would keep the
            # prologue's stream, so refuse rather than rebind them.
            raise LaneDivergence("predictor split before the lane streams")
        self._lane_streams = []

        def lane_stream(salt: int) -> _LaneStream:
            stream = _LaneStream(
                [trial_stream(salt, seed) for seed in lane_seeds],
                recording=self.tape is not None,
            )
            self._lane_streams.append(stream)
            return stream

        self.predictor.bind_streams(lane_stream)

    def use_uniform_streams(self, seed: int) -> None:
        """One shared stream set (the snapshot protocol's prologue).

        Every lane observes the *same* draw sequence — one draw per
        access, broadcast — mirroring the one scalar prologue run whose
        state all forks share.
        """
        self._uniform_streams = True
        self._rng_mem = [random.Random(seed ^ 0xC0FFEE)]
        self._rng_dram = [random.Random(seed ^ 0x33)]
        self._lane_streams = []
        self.predictor.bind_streams(lambda salt: trial_stream(salt, seed))

    def set_lane_default_seeds(self, lane_seeds: Sequence[int]) -> None:
        """Per-lane backing-store default seeds (warm/cold protocol).

        Unwritten addresses then read
        ``splitmix64(paddr ^ seed_k)`` in lane ``k``, matching a scalar
        machine reset under ``seed_k``.
        """
        self._lane_default_seeds = np.array(
            [s & _VALUE_MASK for s in lane_seeds], dtype=np.uint64
        )

    # -- value plumbing -------------------------------------------------
    def _value_at(self, paddr: int) -> object:
        """Architectural value at ``paddr``: shared write or lane default."""
        store = self.mem.store_values
        if store.is_written(paddr):
            return store.read(paddr)
        if self._lane_default_seeds is None:
            return store.read(paddr)
        defaults = _splitmix64_vec(
            np.uint64(paddr) ^ self._lane_default_seeds
        )
        if self.tape is not None:
            return self.tape.leaf_default(defaults, paddr)
        return defaults

    # -- per-lane latency draws ----------------------------------------
    def _draw_l2_jitter(self) -> object:
        jitter = self.mem.config.l2_jitter
        if self._uniform_streams:
            return np.full(
                self.lanes, self._rng_mem[0].randint(0, jitter),
                dtype=np.int64,
            )
        draws = np.fromiter(
            (rng.randint(0, jitter) for rng in self._rng_mem),
            dtype=np.int64,
            count=self.lanes,
        )
        if self.tape is not None:
            return self.tape.leaf_l2(draws, jitter)
        return draws

    def _draw_dram(self) -> object:
        """Per-lane DRAM latency, mirroring ``DramModel.access_latency``."""
        config = self.mem.config.dram
        base = config.base_latency
        jitter = config.jitter
        tail_extra = config.tail_extra
        tail_probability = config.tail_probability

        def one(rng: random.Random) -> int:
            latency = base
            if jitter:
                latency += rng.randint(0, jitter)
            if tail_extra and rng.random() < tail_probability:
                latency += tail_extra
            return latency

        if self._uniform_streams:
            return np.full(self.lanes, one(self._rng_dram[0]), dtype=np.int64)
        out = np.empty(self.lanes, dtype=np.int64)
        for lane, rng in enumerate(self._rng_dram):
            out[lane] = one(rng)
        if self.tape is not None:
            return self.tape.leaf_dram(
                out, base, jitter, tail_extra, tail_probability
            )
        return out

    def _load_access(self, pid: int, vaddr: int) -> Tuple[object, bool, int]:
        """The timed-load structural walk, with lane-vector latencies.

        Mirrors :meth:`MemorySystem.load` (fill path) stage for stage —
        translate, TLB access, L1 lookup, L2 lookup, jitter/DRAM draw,
        fill — against the *real* shared structures, so replacement
        state evolves exactly as one scalar trial's would.  Only the
        latency draws are per-lane.  Returns ``(latency, l1_hit,
        paddr)`` where latency is an int (L1 hit) or an ``[lanes]``
        vector.
        """
        mem = self.mem
        paddr = mem.translate(pid, vaddr)
        tlb_latency = mem.tlb.access(pid, vaddr)
        line = line_address(paddr, mem.config.line_size)
        if mem.l1.lookup(line):
            return mem.config.l1_hit_latency + tlb_latency, True, paddr
        l2_hit = mem.l2.lookup(line)
        latency: object = (
            mem.config.l1_hit_latency + mem.config.l2_hit_latency
            + tlb_latency
        )
        if l2_hit:
            if mem.config.l2_jitter:
                latency = latency + self._draw_l2_jitter()
        else:
            latency = latency + self._draw_dram()
        mem.apply_fill(paddr)
        return latency, False, paddr

    def _load_access_nofill(
        self, pid: int, vaddr: int
    ) -> Tuple[object, bool, int]:
        """The ``fill=False`` structural walk (``MemorySystem.load``).

        Contains-only lookups (no LRU recency update, no TLB insert),
        but the *same* latency draws as the fill path — the per-lane
        jitter streams stay aligned with the scalar machine's.
        """
        mem = self.mem
        paddr = mem.translate(pid, vaddr)
        tlb_latency = (
            0 if mem.tlb.contains(pid, vaddr) else mem.tlb.walk_latency
        )
        line = line_address(paddr, mem.config.line_size)
        if mem.l1.contains(line):
            return mem.config.l1_hit_latency + tlb_latency, True, paddr
        l2_hit = mem.l2.contains(line)
        latency: object = (
            mem.config.l1_hit_latency + mem.config.l2_hit_latency
            + tlb_latency
        )
        if l2_hit:
            if mem.config.l2_jitter:
                latency = latency + self._draw_l2_jitter()
        else:
            latency = latency + self._draw_dram()
        return latency, False, paddr

    # -- deferred fill events -------------------------------------------
    def _schedule_fill(
        self, cycle: np.ndarray, paddr: int, pid: int, vaddr: int
    ) -> None:
        self._fill_events.append(_FillEvent(cycle, paddr, pid, vaddr))

    def _apply_fill_events(self, issue: Optional[np.ndarray]) -> None:
        """Apply every due deferred fill before an access at ``issue``.

        A fill is due when its cycle precedes the access in every lane
        (verify and commit both run before issue within a cycle, so
        equality counts).  A fill due in some lanes only, or two due
        fills whose order crosses between lanes, would evolve the
        shared replacement state differently per lane — divergence.
        ``issue=None`` (end of run) applies everything.
        """
        events = self._fill_events
        if not events:
            return
        remaining: List[_FillEvent] = []
        last_applied: Optional[np.ndarray] = None
        for event in events:
            if issue is None:
                due = True
            else:
                mask = event.cycle <= issue
                if bool(np.all(mask)):
                    due = True
                elif not bool(np.any(mask)):
                    due = False
                else:
                    raise LaneDivergence(
                        "deferred fill straddles a memory access"
                    )
            if due:
                if last_applied is not None and not bool(
                    np.all(last_applied <= event.cycle)
                ):
                    raise LaneDivergence(
                        "deferred fills reorder across lanes"
                    )
                self.mem.apply_deferred_fill(
                    event.paddr, event.pid, event.vaddr
                )
                last_applied = event.cycle
            else:
                remaining.append(event)
        self._fill_events = remaining

    # -- predictor ledger -----------------------------------------------
    def _enqueue_train(
        self,
        key: AccessKey,
        value: object,
        prediction: Optional[Prediction],
        complete: np.ndarray,
        mask: Optional[np.ndarray] = None,
    ) -> None:
        done = (
            np.zeros(self.lanes, dtype=bool)
            if self._split is not None else None
        )
        self._pending_trains.append(_PendingTrain(
            complete, key, value, prediction, mask, self._train_seq, done,
        ))
        self._train_seq += 1

    def _begin_split(self) -> None:
        """Fork the shared predictor into per-lane replicas.

        Replica ``k`` takes over lane ``k``'s own random streams (the
        deepcopy memo substitutes them for the shared lane streams).
        """
        if self.tape is not None:
            # Per-lane predictor replay is genuinely per-lane work a
            # width-agnostic tape cannot express; the recording attempt
            # aborts and the pass re-runs untaped.
            raise TapeInvalid("predictor lane split is not tapeable")
        self._split = [
            copy.deepcopy(self.predictor, {
                id(stream): stream.rngs[lane]
                for stream in self._lane_streams
            })
            for lane in range(self.lanes)
        ]
        for train in self._pending_trains:
            if train.done is None:
                train.done = np.zeros(self.lanes, dtype=bool)
        if self._applied_max is None:
            self._applied_max = np.full(self.lanes, -1, dtype=np.int64)

    def _apply_due_shared(self, issue: Optional[np.ndarray]) -> None:
        """Apply due trainings to the one shared predictor, in order.

        The scalar core verifies/trains in ``(complete_cycle, seq)``
        order; a pending training may apply only when it is uniformly
        first by that order across lanes *and* uniformly due.  Any
        ambiguity — crossing completions, a straddling mask, a
        non-uniform trained value — forks the predictor per lane
        (:meth:`_begin_split`) instead of guessing.
        """
        while self._split is None:
            pending = [
                train for train in self._pending_trains
                if train.mask is None or bool(np.any(train.mask))
            ]
            self._pending_trains = pending
            if not pending:
                return
            first: Optional[_PendingTrain] = None
            for train in pending:
                uniformly_first = True
                for other in pending:
                    if other is train:
                        continue
                    before = (
                        (train.complete < other.complete)
                        | ((train.complete == other.complete)
                           & (train.seq < other.seq))
                    )
                    if not bool(np.all(before)):
                        uniformly_first = False
                        break
                if uniformly_first:
                    first = train
                    break
            if first is None:
                self._begin_split()
                return
            if issue is not None:
                due = first.complete <= issue
                if not bool(np.any(due)):
                    return
                if not bool(np.all(due)):
                    self._begin_split()
                    return
            if first.mask is not None and not bool(np.all(first.mask)):
                self._begin_split()
                return
            value = first.value
            if self._train_value_blind:
                # The trained value is dead state for a NoPredictor;
                # a per-lane value neither forces a collapse guard nor
                # a lane split.
                value = 0
            elif isinstance(value, TV):
                head = value.shadow.flat[0]
                if not bool(np.all(value.shadow == head)):
                    self._begin_split()
                    return
                value.tape.guard_uniform(value, int(head))
                value = int(head)
            elif isinstance(value, np.ndarray):
                head = value.flat[0]
                if not bool(np.all(value == head)):
                    self._begin_split()
                    return
                value = int(head)
            self.predictor.train(first.key, int(value), first.prediction)
            self._applied_max = (
                first.complete.copy() if self._applied_max is None
                else np.maximum(self._applied_max, first.complete)
            )
            self._pending_trains.remove(first)

    def _apply_due_split(self, issue: Optional[np.ndarray]) -> None:
        """Per-lane replay of due trainings in (complete, seq) order."""
        pending = self._pending_trains
        if not pending:
            return
        replicas = self._split
        assert replicas is not None and self._applied_max is not None
        for lane in range(self.lanes):
            todo = [
                train for train in pending
                if train.done is not None and not train.done[lane]
                and (issue is None or train.complete[lane] <= issue[lane])
            ]
            todo.sort(key=lambda t: (int(t.complete[lane]), t.seq))
            for train in todo:
                train.done[lane] = True  # type: ignore[index]
                if train.mask is not None and not bool(train.mask[lane]):
                    continue
                value = train.value
                value = (
                    int(value[lane]) if isinstance(value, np.ndarray)
                    else int(value)
                )
                replicas[lane].train(train.key, value, train.prediction)
                self._applied_max[lane] = max(
                    self._applied_max[lane], int(train.complete[lane])
                )
        self._pending_trains = [
            train for train in pending
            if train.done is None or not bool(np.all(train.done))
        ]

    def _apply_due(self, issue: Optional[np.ndarray]) -> None:
        if self._split is None:
            self._apply_due_shared(issue)
        if self._split is not None:
            self._apply_due_split(issue)

    def _consult_predictor(
        self, key: AccessKey, issue: np.ndarray
    ) -> Optional[Prediction]:
        """Predict for a VPS-engaged load, applying due trainings first.

        The scalar core trains at each load's completion cycle and
        predicts at each miss's issue cycle; completion runs before
        issue within a cycle, so a pending training applies iff its
        completion is <= the consulting issue in *every* lane.  The
        applied-max guard catches the converse: a training already
        applied *after* this issue in some lane means that lane's
        scalar machine would not have seen it yet.
        """
        self._apply_due(issue)
        if self._applied_max is not None and bool(
            np.any(self._applied_max > issue)
        ):
            raise LaneDivergence("train/predict order differs across lanes")
        if self._split is not None:
            predictions = [
                replica.predict(key) for replica in self._split
            ]
            head = predictions[0]
            if any(p != head for p in predictions):
                raise LanePartition(predictions)
            return head
        return self.predictor.predict(key)

    def drain_trains(self) -> None:
        """Apply every still-pending training (end of the measured code).

        Safe to run early at a run boundary: the next consult can only
        happen at an issue cycle beyond this run's last completion, so
        it would apply these trainings first anyway, in the same
        (complete, seq) order.
        """
        self._apply_due(None)

    # -- the forward pass ----------------------------------------------
    def run_program(self, program: object) -> LaneRunResult:
        """Lockstep-execute one program; advances the shared clock."""
        trace = program.dynamic_trace()  # type: ignore[attr-defined]
        pid: int = program.pid  # type: ignore[attr-defined]
        name: str = program.name  # type: ignore[attr-defined]
        config = self.config
        if not trace:
            raise LaneDivergence(f"program {name} has an empty trace")

        lanes = self.lanes
        start = self.cycle
        one = 1  # numpy broadcasts python ints; keep the hot path terse
        fetch_width = config.fetch_width
        commit_width = config.commit_width
        rob_size = config.rob_size
        track_spec = config.delay_speculative_fills

        cols: List[_Col] = []
        rename: Dict[int, _Col] = {}
        arch: Dict[int, object] = {}
        stall: Optional[np.ndarray] = None
        fence_gate: Optional[np.ndarray] = None
        last_mem: Optional[np.ndarray] = None
        prev_mem: Optional[np.ndarray] = None
        rdtsc_values: List[Tuple[int, _LaneInt]] = []
        squashes = 0
        # Issue-cycle logs for the post-hoc width/port oversubscription
        # guards (the recurrences assume the caps never bind).
        width_issues: List[np.ndarray] = []
        alu_issues: List[np.ndarray] = []
        mul_issues: List[np.ndarray] = []

        def source_ready(base: np.ndarray, regs: Tuple[int, ...]) -> np.ndarray:
            ready = base
            for reg in regs:
                producer = rename.get(reg)
                if producer is not None:
                    assert producer.VR is not None
                    ready = np.maximum(ready, producer.VR)
            return ready

        def source_value(reg: int) -> object:
            producer = rename.get(reg)
            if producer is None:
                return arch.get(reg, 0)
            if producer.result is None:
                raise LaneDivergence("consumer scheduled before producer")
            return producer.result

        def unverified_at(load_col: _Col, issue: np.ndarray) -> bool:
            """Whether a predicted load is still unverified at ``issue``.

            Verification happens at the load's completion, which runs
            before the issue stage within a cycle; a verdict that
            differs between lanes diverges.
            """
            assert load_col.C is not None
            before = issue < load_col.C
            if bool(np.all(before)):
                return True
            if not bool(np.any(before)):
                return False
            raise LaneDivergence(
                "prediction verification straddles a consumer's issue"
            )

        def spec_source(
            regs: Tuple[int, ...], issue: np.ndarray
        ) -> Optional[_Col]:
            """Youngest unverified predicted-load ancestor (scalar
            ``_speculative_source``), tracked only under the D defense."""
            best: Optional[_Col] = None
            for reg in regs:
                producer = rename.get(reg)
                if producer is None:
                    continue
                candidate: Optional[_Col] = None
                if producer.pred_load and unverified_at(producer, issue):
                    candidate = producer
                elif producer.spec_col is not None and unverified_at(
                    producer.spec_col, issue
                ):
                    candidate = producer.spec_col
                if candidate is not None and (
                    best is None or candidate.seq > best.seq
                ):
                    best = candidate
            return best

        def retire_cycle(complete: np.ndarray) -> np.ndarray:
            n = len(cols)
            retire = complete
            if n:
                assert cols[-1].R is not None
                retire = np.maximum(retire, cols[-1].R)
            if n >= commit_width:
                chain = cols[n - commit_width].R
                assert chain is not None
                retire = np.maximum(retire, chain + one)
            return retire

        def run_transient_window(
            load_col: _Col, prediction: Prediction, pred_vr: np.ndarray,
            window_start: int,
        ) -> None:
            """Execute the mispredicted load's squash window transiently.

            Models the scalar core's pre-squash execution of the ops
            younger than the load, up to the next FENCE: dispatch and
            issue follow the same recurrences over the combined
            main+transient column sequence, and an op takes effect only
            when its issue cycle precedes the squash cycle ``C`` in
            every lane.  Register writes go to a local rename overlay
            (seeded with the predicted value) that the main pass never
            sees — the post-squash refetch re-executes the same trace
            entries architecturally.  Side effects that survive the
            squash — cache/TLB walks of issued loads, and their masked
            trainings — land on the shared structures and the ledger.
            """
            squash_c = load_col.C
            assert squash_c is not None
            far = np.full(lanes, _FAR, dtype=np.int64)
            need_taint = config.delay_speculative_fills
            trigger = trace[window_start - 1]
            trigger_dest = trigger.instruction.destination_register()
            # reg -> (value-ready vector | None if never ready, value,
            #         speculatively tainted)
            overlay: Dict[int, Tuple[Optional[np.ndarray], object, bool]] = {}
            if trigger_dest is not None:
                overlay[trigger_dest] = (pred_vr, prediction.value, True)
            transient_d: List[np.ndarray] = []
            t_last_mem, t_prev_mem = last_mem, prev_mem
            n_load = len(cols) - 1

            def pre_squash(cycles: np.ndarray) -> bool:
                """all(< C) -> True; all(>= C) -> False; mixed diverges."""
                pre = cycles < squash_c
                if bool(np.all(pre)):
                    return True
                if not bool(np.any(pre)):
                    return False
                raise LaneDivergence(
                    "squash window edge straddles lanes"
                )

            def t_source_vr(
                base: np.ndarray, regs: Tuple[int, ...]
            ) -> Optional[np.ndarray]:
                ready = base
                for reg in regs:
                    if reg in overlay:
                        vr = overlay[reg][0]
                        if vr is None:
                            return None  # producer never issued
                        ready = np.maximum(ready, vr)
                    else:
                        producer = rename.get(reg)
                        if producer is not None:
                            assert producer.VR is not None
                            ready = np.maximum(ready, producer.VR)
                return ready

            def t_source_value(reg: int) -> object:
                if reg in overlay:
                    return overlay[reg][1]
                return source_value(reg)

            def t_tainted(regs: Tuple[int, ...], issue: np.ndarray) -> bool:
                for reg in regs:
                    if reg in overlay:
                        if overlay[reg][2]:
                            return True
                        continue
                    producer = rename.get(reg)
                    if producer is None:
                        continue
                    if producer.pred_load and unverified_at(producer, issue):
                        return True
                    if producer.spec_col is not None and unverified_at(
                        producer.spec_col, issue
                    ):
                        return True
                return False

            for w, spec in enumerate(trace[window_start:]):
                sinstr: Instruction = spec.instruction
                sop = sinstr.op
                if sop is Opcode.FENCE:
                    # A FENCE blocks dispatch behind it; nothing past
                    # it existed before the squash.
                    break
                if sop in (Opcode.STORE, Opcode.FLUSH, Opcode.RDTSC):
                    raise LaneDivergence(
                        f"{sop.name.lower()} in a squash window is not "
                        "lane-vectorized"
                    )
                n = n_load + 1 + w
                dispatch = transient_d[w - 1] if w else load_col.D
                assert dispatch is not None
                if n >= fetch_width:
                    gate_index = n - fetch_width
                    if gate_index <= n_load:
                        gate = cols[gate_index].D
                    elif gate_index - n_load - 1 < len(transient_d):
                        gate = transient_d[gate_index - n_load - 1]
                    else:
                        gate = None  # gated by a never-dispatched op
                    if gate is None:
                        break
                    dispatch = np.maximum(dispatch, gate + one)
                if stall is not None:
                    dispatch = np.maximum(dispatch, stall)
                if fence_gate is not None:
                    dispatch = np.maximum(dispatch, fence_gate)
                if n >= rob_size:
                    gate_index = n - rob_size
                    if gate_index > n_load:
                        # The ROB slot waits on a transient op that
                        # never retires: dispatch stops here.
                        break
                    gate_r = cols[gate_index].R
                    assert gate_r is not None
                    dispatch = np.maximum(dispatch, gate_r)
                if not pre_squash(dispatch):
                    break  # in-order dispatch: younger ops stop too
                transient_d.append(dispatch)

                dreg = sinstr.destination_register()
                if sop in (Opcode.NOP, Opcode.HALT):
                    issue = dispatch + one
                    if pre_squash(issue):
                        width_issues.append(issue)
                    continue
                if sop is Opcode.LI:
                    issue = dispatch + one
                    if pre_squash(issue):
                        width_issues.append(issue)
                        if dreg is not None:
                            overlay[dreg] = (
                                issue + config.alu_latency,
                                sinstr.imm & _VALUE_MASK,
                                False,
                            )
                    elif dreg is not None:
                        overlay[dreg] = (None, None, False)
                    continue
                if sop is Opcode.ALU:
                    issue_base = t_source_vr(
                        dispatch + one, sinstr.source_registers()
                    )
                    if issue_base is None or not pre_squash(issue_base):
                        if dreg is not None:
                            overlay[dreg] = (None, None, False)
                        continue
                    issue = issue_base
                    needs_mul = sinstr.alu_op is AluOp.MUL
                    width_issues.append(issue)
                    (mul_issues if needs_mul else alu_issues).append(issue)
                    assert sinstr.src1 is not None and sinstr.alu_op is not None
                    lhs = t_source_value(sinstr.src1)
                    rhs: object = (
                        t_source_value(sinstr.src2)
                        if sinstr.src2 is not None else sinstr.imm
                    )
                    if isinstance(lhs, np.ndarray) or isinstance(rhs, np.ndarray):
                        result: object = _alu_vec(sinstr.alu_op, lhs, rhs)
                    else:
                        result = _alu_compute(sinstr.alu_op, lhs, rhs)
                    latency = (
                        config.mul_latency if needs_mul
                        else config.alu_latency
                    )
                    if dreg is not None:
                        taint = (
                            t_tainted(sinstr.source_registers(), issue)
                            if need_taint else False
                        )
                        overlay[dreg] = (issue + latency, result, taint)
                    continue
                if sop is Opcode.LOAD:
                    issue_base = t_source_vr(
                        dispatch + one, sinstr.source_registers()
                    )
                    if issue_base is None:
                        # A memory op stuck at the issue stage blocks
                        # every younger memory op (memory_blocked).
                        t_prev_mem, t_last_mem = t_last_mem, far
                        if dreg is not None:
                            overlay[dreg] = (None, None, False)
                        continue
                    issue = issue_base
                    if t_last_mem is not None:
                        issue = np.maximum(issue, t_last_mem)
                    if t_prev_mem is not None:
                        issue = np.maximum(issue, t_prev_mem + one)
                    if not pre_squash(issue):
                        t_prev_mem, t_last_mem = t_last_mem, far
                        if dreg is not None:
                            overlay[dreg] = (None, None, False)
                        continue
                    width_issues.append(issue)
                    t_prev_mem, t_last_mem = t_last_mem, issue
                    base: object = 0
                    if sinstr.src1 is not None:
                        base = t_source_value(sinstr.src1)
                    addr = _uniform_int(base, "transient effective address")
                    addr = (addr + sinstr.imm) & EA_MASK
                    taint = (
                        t_tainted(sinstr.source_registers(), issue)
                        if need_taint else False
                    )
                    self._apply_fill_events(issue)
                    nofill = config.invisispec or (
                        config.delay_speculative_fills and taint
                    )
                    # The transient walk is the attack's persistent
                    # footprint: a fill survives the squash; deferred
                    # (D) and invisible (InvisiSpec) fills never land
                    # because the load never verifies nor retires.
                    if nofill:
                        latency, l1_hit, paddr = self._load_access_nofill(
                            pid, addr
                        )
                    else:
                        latency, l1_hit, paddr = self._load_access(pid, addr)
                    value = self._value_at(paddr)
                    done = issue + latency
                    key: Optional[AccessKey] = None
                    nested: Optional[Prediction] = None
                    if l1_hit:
                        if config.train_on_hit or config.predict_on_hit:
                            key = AccessKey(pc=spec.pc, addr=addr, pid=pid)
                            if (
                                config.predict_on_hit
                                and config.value_prediction
                            ):
                                nested = self._consult_predictor(key, issue)
                    else:
                        key = AccessKey(pc=spec.pc, addr=addr, pid=pid)
                        if config.value_prediction:
                            nested = self._consult_predictor(key, issue)
                    if nested is not None:
                        raise LaneDivergence(
                            "nested speculation in a squash window"
                        )
                    if key is not None:
                        # The VPS observes the value only in lanes
                        # where the load completed strictly before the
                        # squash (ties verify the older trigger first).
                        self._enqueue_train(
                            key, value, None, done, mask=done < squash_c
                        )
                    if dreg is not None:
                        overlay[dreg] = (done, value, taint)
                    continue
                raise LaneDivergence(  # pragma: no cover - exhaustive
                    f"unhandled opcode {sop} in a squash window"
                )

        index = 0
        trace_length = len(trace)
        while index < trace_length:
            placed = trace[index]
            instr: Instruction = placed.instruction
            op = instr.op
            col = _Col()
            n = len(cols)
            col.seq = n

            # -- dispatch ----------------------------------------------
            dispatch = cols[-1].D if n else start
            assert dispatch is not None
            if n >= fetch_width:
                prior = cols[n - fetch_width].D
                assert prior is not None
                dispatch = np.maximum(dispatch, prior + one)
            if stall is not None:
                dispatch = np.maximum(dispatch, stall)
            if fence_gate is not None:
                dispatch = np.maximum(dispatch, fence_gate)
            if n >= rob_size:
                rob_gate = cols[n - rob_size].R
                assert rob_gate is not None
                dispatch = np.maximum(dispatch, rob_gate)
            col.D = dispatch

            squashed_here = False
            trig_pred: Optional[Prediction] = None
            trig_vr: Optional[np.ndarray] = None
            if op in (Opcode.FENCE, Opcode.RDTSC):
                # Serialising: executes at the ROB head once drained.
                retire = np.maximum(dispatch + one, retire_cycle(dispatch))
                col.I = col.VR = col.C = col.R = retire
                if op is Opcode.FENCE:
                    fence_gate = retire
                else:
                    col.result = retire  # RDTSC reads its retire cycle
                    rdtsc_values.append((placed.pc, _LaneInt(retire)))
            elif op in (Opcode.NOP, Opcode.HALT):
                issue = dispatch + one
                width_issues.append(issue)
                col.I = issue
                col.VR = col.C = issue + one
                col.R = retire_cycle(col.C)
            elif op is Opcode.LI:
                issue = dispatch + one
                width_issues.append(issue)
                col.I = issue
                col.result = instr.imm & _VALUE_MASK
                col.VR = col.C = issue + config.alu_latency
                col.R = retire_cycle(col.C)
            elif op is Opcode.ALU:
                issue = source_ready(
                    dispatch + one, instr.source_registers()
                )
                width_issues.append(issue)
                needs_mul = instr.alu_op is AluOp.MUL
                (mul_issues if needs_mul else alu_issues).append(issue)
                col.I = issue
                if track_spec:
                    col.spec_col = spec_source(
                        instr.source_registers(), issue
                    )
                assert instr.src1 is not None and instr.alu_op is not None
                lhs = source_value(instr.src1)
                rhs: object = (
                    source_value(instr.src2)
                    if instr.src2 is not None else instr.imm
                )
                if isinstance(lhs, np.ndarray) or isinstance(rhs, np.ndarray):
                    col.result = _alu_vec(instr.alu_op, lhs, rhs)
                else:
                    col.result = _alu_compute(instr.alu_op, lhs, rhs)
                latency = (
                    config.mul_latency if needs_mul else config.alu_latency
                )
                col.VR = col.C = issue + latency
                col.R = retire_cycle(col.C)
            elif op is Opcode.STORE:
                raise LaneDivergence("stores are not lane-vectorized")
            elif op in (Opcode.FLUSH, Opcode.LOAD):
                issue = source_ready(
                    dispatch + one, instr.source_registers()
                )
                # Memory ops issue strictly in program order through
                # the two memory ports.
                if last_mem is not None:
                    issue = np.maximum(issue, last_mem)
                if prev_mem is not None:
                    issue = np.maximum(issue, prev_mem + one)
                width_issues.append(issue)
                prev_mem, last_mem = last_mem, issue
                col.I = issue
                base: object = 0
                if instr.src1 is not None:
                    base = source_value(instr.src1)
                addr = _uniform_int(base, "effective address")
                addr = (addr + instr.imm) & EA_MASK
                if op is Opcode.FLUSH:
                    self._apply_fill_events(issue)
                    self.mem.flush(pid, addr)
                    col.VR = col.C = issue + self.mem.config.flush_latency
                    col.R = retire_cycle(col.C)
                else:
                    spec_col = (
                        spec_source(instr.source_registers(), issue)
                        if track_spec else None
                    )
                    squashed_here, trig_pred, trig_vr = self._load_column(
                        col, pid, placed.pc, addr, issue, retire_cycle,
                        spec_col,
                    )
            else:  # pragma: no cover - exhaustive over Opcode
                raise LaneDivergence(f"unhandled opcode {op}")

            cols.append(col)
            destination = instr.destination_register()
            if destination is not None:
                rename[destination] = col

            if squashed_here:
                # The scalar core dispatched (and possibly issued)
                # younger ops between the load's issue and its
                # verification; squashing discards their register
                # results, but an issued transient *memory* op has
                # already walked the caches — the persistent channel.
                # Execute the window transiently, then refetch right
                # after the load with the penalty applied.
                assert trig_pred is not None and trig_vr is not None
                run_transient_window(col, trig_pred, trig_vr, index + 1)
                squashes += 1
                assert col.C is not None
                penalty = col.C + config.squash_penalty
                stall = (
                    penalty if stall is None else np.maximum(stall, penalty)
                )
            index += 1

        last = cols[-1].R
        assert last is not None
        end = last
        finish = end + one
        # The scalar core raises SimulationError past the cycle budget;
        # stay conservatively clear of it so near-budget runs take the
        # scalar path and raise (or not) exactly as before.
        if bool(np.any(finish - start > config.max_cycles - 2)):
            raise LaneDivergence("run approaches the cycle budget")

        self._check_oversubscription(width_issues, config.issue_width, "issue width")
        self._check_oversubscription(alu_issues, config.alu_ports, "ALU ports")
        self._check_oversubscription(mul_issues, config.mul_ports, "MUL ports")

        self.simulated_cycles += int(np.sum(finish - start))
        self.total_retired += len(cols) * lanes
        self.total_squashes += squashes * lanes
        if self.tape is not None:
            # Column/squash counts are per-lane-uniform; the tape
            # scales them by the replay lane count.
            self.tape.note_run(len(cols), squashes)
        self.cycle = finish
        # Every deferred fill and pending training completed within
        # this run, and any later access happens at an issue cycle past
        # this run's end, so applying them now is order-equivalent and
        # keeps neither queue spanning run boundaries.
        self._apply_fill_events(None)
        self.drain_trains()
        return LaneRunResult(
            program_name=name,
            pid=pid,
            start_cycles=start,
            end_cycles=end,
            retired=len(cols),
            squashes=squashes,
            rdtsc_values=rdtsc_values,
        )

    # -- loads ----------------------------------------------------------
    def _load_column(
        self,
        col: _Col,
        pid: int,
        pc: int,
        addr: int,
        issue: np.ndarray,
        retire_cycle,
        spec_col: Optional[_Col],
    ) -> Tuple[bool, Optional[Prediction], Optional[np.ndarray]]:
        """Schedule one load column.

        Returns ``(squashed, prediction, speculative value-ready)``:
        the last two feed the transient-window overlay when the load
        mispredicts (consumers issued pre-squash saw the predicted
        value at the *early* value-ready cycle, not the post-verify
        one stored on the column).
        """
        config = self.config
        invisi = config.invisispec
        defer = (
            not invisi
            and config.delay_speculative_fills
            and spec_col is not None
        )
        if defer and spec_col is not None and spec_col.spec_col is not None:
            # The scalar core re-keys the deferred fill to the
            # grandparent prediction at verify time; model the common
            # flat case only.
            raise LaneDivergence("nested speculative fill deferral")
        self._apply_fill_events(issue)
        if invisi or defer:
            latency, l1_hit, paddr = self._load_access_nofill(pid, addr)
        else:
            latency, l1_hit, paddr = self._load_access(pid, addr)
        value = self._value_at(paddr)
        col.spec_col = spec_col
        done = issue + latency

        def post_fill() -> None:
            """Schedule the deferred fill this nofill walk owes."""
            if invisi:
                # InvisiSpec: every load re-fills at its retire.
                assert col.R is not None
                self._schedule_fill(col.R, paddr, pid, addr)
            elif defer:
                # D defense: the fill lands when the speculation
                # source verifies (correct — a mispredicting source
                # would have squashed this load into a transient).
                assert spec_col is not None and spec_col.C is not None
                self._schedule_fill(spec_col.C, paddr, pid, addr)

        key: Optional[AccessKey] = None
        prediction: Optional[Prediction] = None
        if l1_hit:
            if config.train_on_hit or config.predict_on_hit:
                key = AccessKey(pc=pc, addr=addr, pid=pid)
                if config.predict_on_hit and config.value_prediction:
                    prediction = self._consult_predictor(key, issue)
            if prediction is None:
                col.result = value
                col.VR = col.C = done
                col.R = retire_cycle(col.C)
                if key is not None:
                    self._enqueue_train(key, value, None, done)
                post_fill()
                return False, None, None
            # Footnote 2's non-load-based VPS: hits predict too, and
            # mispredicted hits still squash.
            actual = _uniform_int(value, "predicted-load value")
            self._enqueue_train(key, actual, prediction, done)
            col.C = done
            col.pred_load = True
            col.result = actual
            early_vr = np.minimum(issue + config.predict_latency, done)
            if prediction.value == actual:
                col.VR = early_vr
                col.R = retire_cycle(col.C)
                post_fill()
                return False, None, None
            col.VR = done
            col.R = retire_cycle(col.C)
            post_fill()
            return True, prediction, early_vr

        # L1 miss: the Value Prediction System is engaged.
        memory_return = done
        key = AccessKey(pc=pc, addr=addr, pid=pid)
        if config.value_prediction:
            prediction = self._consult_predictor(key, issue)
        if prediction is None:
            col.result = value
            col.VR = col.C = memory_return
            col.R = retire_cycle(col.C)
            self._enqueue_train(key, value, None, memory_return)
            post_fill()
            return False, None, None
        actual = _uniform_int(value, "predicted-load value")
        self._enqueue_train(key, actual, prediction, memory_return)
        col.C = memory_return
        col.pred_load = True
        col.result = actual
        early_vr = issue + config.predict_latency
        if prediction.value == actual:
            # Verified correct: consumers saw the early value.
            col.VR = early_vr
            col.R = retire_cycle(col.C)
            post_fill()
            return False, None, None
        # Misprediction: the squash is lane-uniform (shared predictor,
        # uniform actual), so every lane kills the same younger window.
        col.VR = memory_return
        col.R = retire_cycle(col.C)
        post_fill()
        return True, prediction, early_vr

    # -- guards ---------------------------------------------------------
    def _check_oversubscription(
        self, issues: Sequence[object], cap: int, what: str
    ) -> None:
        """Diverge if >cap ops would issue in one cycle in any lane.

        The schedule recurrences assume the unconstrained schedule
        respects every per-cycle cap; sort each class's issue cycles
        per lane and check no ``cap+1`` of them coincide.  Traced
        vectors check their shadows and additionally record the whole
        check as a guard — new seeds' jitter can make a cap bind that
        did not bind at record time.
        """
        if len(issues) <= cap:
            return
        if any(isinstance(issue, TV) for issue in issues):
            assert self.tape is not None
            self.tape.guard_oversubscription(issues, cap, what)
            arrays = [
                issue.shadow if isinstance(issue, TV) else np.asarray(issue)
                for issue in issues
            ]
        else:
            arrays = [np.asarray(issue) for issue in issues]
        stacked = np.sort(np.stack(arrays), axis=0)
        if bool(np.any(stacked[cap:] <= stacked[:-cap])):
            raise LaneDivergence(f"{what} oversubscribed")
