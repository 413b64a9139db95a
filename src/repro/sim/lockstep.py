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
  ``C = VR = R = max(R[n-1], D + 1, R[n-commit_width] + 1)``;
* dependent ALU runs — consecutive ALU entries where every op after
  the first is in immediate form and rewrites its predecessor's
  destination (``ProgramBuilder.dependent_chain``) — are solved as one
  ``[K x lanes]`` block, not K columns.  D and R never decrease, so
  ``D[k] = max(M[k], D[k-F] + 1)`` with ``M`` the row's floor (previous
  D, stall, fence gate, ``R[n-rob_size]``); along one residue class mod
  ``F = fetch_width`` ``D - step`` is a running max
  (``np.maximum.accumulate``) seeded with the row ``F`` before.  With
  ``S`` the prefix sum of the run's latencies, ``VR - S`` is the running
  max of ``D + 1 - S[k-1]`` seeded with op 0's source readiness, and
  ``I = VR - latency``; R is the same residue-class solve mod
  ``commit_width`` over ``max(C, previous R)``.  Blocks hold at most
  ``rob_size`` ops, so every ROB gate is an already scheduled row, and
  the lane guards become row tests: each lane is monotone along a run,
  so only the first row past an edge can straddle it.

The recurrences assume the *unconstrained* schedule never oversubscribes
the issue width or the ALU/MUL ports; a post-hoc sorted-issue-cycle
check verifies that per lane and raises :class:`LaneDivergence` when
it would bind (greedy-with-caps then differs from unconstrained, so the
chunk is replayed on the scalar backend — never silently wrong).

Beyond the straight-line schedule, the engine models the scalar core's
out-of-envelope machinery, keeping shared state lane-uniform:

* **A prediction is a lane value.**  Every trial is a pure function of
  its seed, the R defense's window draws included: lane ``k`` draws
  from the stream :func:`~repro.vp.base.trial_stream` derives from its
  own trial seed.  A draw the lanes disagree on comes back as uint64
  two's-complement offsets, so the R wrapper's own arithmetic yields a
  lane-valued prediction; post-split replicas that all predict give one
  too (:class:`_SplitPrediction`), and the loaded value it is checked
  against may be a lane vector (the backing store's per-lane
  defaults).  Verification yields a per-lane mask: lanes that predicted
  right keep the early value-ready cycle, and only the others take the
  squash stall and run the transient window.  A load that hits in L1 in
  some lanes only consults the predictor in the others.
* **Squash windows execute transiently, in the lanes that squash.**  A
  mispredicted load's younger window (up to the next FENCE) is replayed
  against a rename *overlay* seeded with the predicted value; each
  transient op's dispatch/issue cycles follow the same recurrences, and
  an op is "issued" only when its issue cycle precedes the squash cycle
  in *every* lane of the window (a straddle diverges).  Lanes outside
  the window never count toward the issue-width and port guards.
  Transient loads walk the caches in the window's lanes, at each lane's
  own address — the persistent channel's footprint — and enqueue
  *masked* trainings (a lane trains only where the load completed
  before the squash).  A transient load may itself be predicted when its
  next trace entry is a FENCE: no younger op can read that value, so it
  is only a training.  A transient op whose issue never happens blocks
  all younger transient memory ops, exactly like the scalar issue
  stage's ``memory_blocked``.
* **The training ledger is masked and order-free.**  Pending trainings
  carry per-lane completion vectors, optional per-lane masks, and a
  sequence number; they apply in ``(completion, seq)`` order.  While
  the order and values are lane-uniform the one shared predictor
  suffices.  A lane-valued prediction trains it only through a wrapper
  that drops its own prediction before training its inner predictor
  (the lanes then differ only in what the wrappers' stats count).  The
  first other non-uniform application *splits* the predictor into
  per-lane deepcopies and replays each lane's schedule independently;
  replica ``k`` owns lane ``k``'s streams.
* **Deferred fills are an event queue.**  Under the D defense a
  speculative load's fill waits for its speculation source's verify
  cycle; under InvisiSpec every load's fill waits for its retire
  cycle.  The engine records ``(cycle vector, paddr)`` events and
  applies them before every later structural access, in each lane
  whose issue is past the event (lane-private while other lanes still
  wait; a cross-lane reorder of two events diverges).  A verification
  that straddles a consumer's issue leaves a speculation source in
  some lanes only; values and cycles carry that lane set along, and a
  load on it defers its fill in those lanes and fills now in the
  others.
* **Lane-private lines.**  An access that runs in some lanes only, or
  at lane-varying addresses, fills lines (and TLB pages) that only some
  lanes hold.  The shared caches and TLB keep what every lane holds; a
  :class:`_Level` overlay per structure keeps each lane-private line's
  lane mask, so later walks hit or miss per lane, and only the lanes
  that miss draw L2 jitter or DRAM latency — each lane's draws stay
  aligned with its scalar machine.  A set such an access touched no
  longer has one recency order across lanes, so a fill that would
  evict from it diverges.

Everything the engine cannot prove lane-uniform or schedule-exact —
stores, non-uniform main-pass addresses, a nested prediction a younger
op could read, post-split replicas that disagree on whether to predict,
SMT co-runners, cycle-budget proximity — raises :class:`LaneDivergence`
the same way.  Correctness never depends on
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
import weakref
from dataclasses import replace
from typing import (
    Callable, Dict, Hashable, List, Optional, Sequence, Set, Tuple,
)

import numpy as np

from repro.defenses.always_predict import AlwaysPredictWrapper
from repro.defenses.random_window import RandomWindowWrapper
from repro.isa.instructions import AluOp, Instruction, Opcode
from repro.memory.address import line_address
from repro.memory.hierarchy import MemoryConfig, MemorySystem
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import EA_MASK, _alu_compute
from repro.vp.base import AccessKey, Prediction, ValuePredictor, trial_stream
from repro.vp.indexing import IndexSource
from repro.vp.nopred import NoPredictor
from repro.vp.oracle import OracleTargetPredictor

_VALUE_MASK = (1 << 64) - 1

#: Sentinel issue cycle for transient ops that never issue before the
#: squash: far beyond any real schedule, so anything chained after it
#: classifies as "not issued" in every lane.
_FAR = 1 << 62

#: Padding below every cycle, for the residue-class solve's last rows.
_INT64_MIN = np.iinfo(np.int64).min

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


class _LaneStream:
    """One randomising wrapper's per-lane streams behind one ``randint``.

    Each lane draws from its own trial's stream, and only while it
    consults the predictor: ``active`` is None when every lane does,
    else the mask of those that do.  A draw every such lane agrees on is
    an int; a split one is a lane value of uint64 two's-complement
    offsets, so a wrapper's ``(value + offset) & mask`` stays exact mod
    2**64 in every lane (the other lanes hold a placeholder).
    """

    __slots__ = ("rngs", "active")

    def __init__(self, rngs: List[random.Random]) -> None:
        self.rngs = rngs
        self.active: Optional[np.ndarray] = None

    def randint(self, low: int, high: int) -> object:
        active = self.active
        rngs = self.rngs if active is None else [
            rng for rng, on in zip(self.rngs, active) if on
        ]
        draws = [rng.randint(low, high) for rng in rngs]
        head = draws[0]
        if all(draw == head for draw in draws):
            return head
        lanes = np.array(draws, dtype=np.int64)
        if active is not None:
            lanes = np.full(len(self.rngs), head, dtype=np.int64)
            lanes[active] = draws
        return lanes.astype(np.uint64)


class _SplitPrediction:
    """Post-split replicas' predictions for one load, one per lane.

    ``lanes[k]`` is None where lane ``k`` did not consult.  ``value`` is
    an int where every consulting lane predicts the same value, else a
    uint64 lane vector; replica ``k`` trains with ``lanes[k]``, its own
    prediction.
    """

    __slots__ = ("value", "lanes")

    def __init__(self, lanes: List[Optional[Prediction]]) -> None:
        self.lanes = lanes
        values = [p.value for p in lanes if p is not None]
        head = values[0]
        self.value: object = (
            head if all(value == head for value in values)
            else np.array(
                [head if p is None else p.value for p in lanes],
                dtype=np.uint64,
            )
        )


def _lane_prediction(prediction: object, lane: int) -> Optional[Prediction]:
    """Lane ``lane``'s own prediction, as its scalar trial made it."""
    if isinstance(prediction, _SplitPrediction):
        return prediction.lanes[lane]
    if prediction is not None and isinstance(
        prediction.value, np.ndarray  # type: ignore[attr-defined]
    ):
        return replace(
            prediction,  # type: ignore[arg-type]
            value=int(prediction.value[lane]),  # type: ignore[attr-defined]
        )
    return prediction  # type: ignore[return-value]


#: Wrappers whose ``train`` reads a prediction only to count it in
#: their stats and to decide whether to forward it to ``inner``.
_FORWARDING_WRAPPERS = (
    AlwaysPredictWrapper, OracleTargetPredictor, RandomWindowWrapper,
)

#: Of those, the ones that drop their own prediction before training
#: ``inner``.
_DROPPING_WRAPPERS = (AlwaysPredictWrapper, RandomWindowWrapper)


# A lane set is True (every lane), False (none) or a bool lane mask
# with both values in it.
def _lanes(mask: np.ndarray) -> object:
    """``mask`` as a lane set."""
    if mask.all():
        return True
    if not mask.any():
        return False
    return mask


def _lanes_and(a: object, b: object) -> object:
    if a is False or b is False:
        return False
    if a is True:
        return b
    if b is True:
        return a
    return _lanes(a & b)  # type: ignore[operator]


def _lanes_or(a: object, b: object) -> object:
    if a is True or b is True:
        return True
    if a is False:
        return b
    if b is False:
        return a
    return _lanes(a | b)  # type: ignore[operator]


def _lanes_not(a: object) -> object:
    if isinstance(a, np.ndarray):
        return ~a
    return not a


def _same_lanes(a: object, b: object) -> bool:
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return bool(np.array_equal(a, b))
    return a is b


def _lane_mask(a: object, lanes: int) -> np.ndarray:
    """A lane set as a bool mask of ``lanes`` lanes."""
    if isinstance(a, np.ndarray):
        return a
    return np.full(lanes, bool(a))


def _reads_address(predictor: ValuePredictor) -> bool:
    """Whether any link of a predictor chain indexes by data address."""
    link: object = predictor
    while link is not None:
        index = getattr(link, "index_function", None)
        if index is not None and index.source is not IndexSource.PC:
            return True
        link = getattr(link, "inner", None)
    return False


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
    """Vector-aware ALU evaluation matching ``_alu_compute`` per lane."""
    left = np.asarray(lhs).astype(np.uint64)
    right = np.asarray(rhs).astype(np.uint64)
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


def _alu_any(alu_op: AluOp, lhs: object, rhs: object) -> object:
    """``_alu_compute`` on ints, ``_alu_vec`` once a lane vector enters."""
    if isinstance(lhs, np.ndarray) or isinstance(rhs, np.ndarray):
        return _alu_vec(alu_op, lhs, rhs)
    return _alu_compute(alu_op, lhs, rhs)  # type: ignore[arg-type]


def _uniform_int(value: object, what: str) -> int:
    """Collapse a lane value to a plain int, or diverge."""
    if isinstance(value, (int, np.integer)):
        return int(value)
    array = np.asarray(value)
    first = array.flat[0]
    if not bool(np.all(array == first)):
        raise LaneDivergence(f"non-uniform {what} across lanes")
    return int(first)


def _effective_address(base: object, imm: int) -> object:
    """``(base + imm) & EA_MASK``, per lane when ``base`` is a vector."""
    if isinstance(base, np.ndarray):
        with np.errstate(over="ignore"):
            return (
                base.astype(np.uint64) + np.uint64(imm & _VALUE_MASK)
            ) & np.uint64(EA_MASK)
    return (int(base) + imm) & EA_MASK  # type: ignore[call-overload]


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
        "retired", "rdtsc_values",
    )

    def __init__(
        self,
        program_name: str,
        pid: int,
        start_cycles: np.ndarray,
        end_cycles: np.ndarray,
        retired: int,
        rdtsc_values: List[Tuple[int, _LaneInt]],
    ) -> None:
        self.program_name = program_name
        self.pid = pid
        self.start_cycles = start_cycles
        self.end_cycles = end_cycles
        self.retired = retired
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
    """Rename-visible state of one dynamic uop column across all lanes.

    Dispatch and retire rows live in the pass's ``D``/``R`` matrices;
    a column object exists only for what a later consumer reads.
    """

    __slots__ = (
        "VR", "C", "R", "result", "seq", "spec_col", "spec_lanes",
        "pred_load",
    )

    def __init__(self) -> None:
        self.VR: Optional[np.ndarray] = None
        self.C: Optional[np.ndarray] = None
        self.R: Optional[np.ndarray] = None
        self.result: object = None
        #: Program-order position; ordering key for speculation sources.
        self.seq: int = -1
        #: Youngest unverified predicted-load ancestor at issue time
        #: (only tracked when the D defense is active), and the lane
        #: set where it is one: a verification that straddles the
        #: issue leaves it a source in some lanes only.
        self.spec_col: Optional["_Col"] = None
        self.spec_lanes: object = False
        #: The lane set where a load issued with a value prediction.
        self.pred_load: object = False


class _Run:
    """A dependent ALU run: consecutive ALU trace entries in one chain.

    Every op after ``head`` is in immediate form, reads the register its
    predecessor wrote and writes it again, so the run is one serial
    chain into ``dest`` (``ProgramBuilder.dependent_chain`` emits
    exactly this).  An isolated ALU op is a run of length 1.
    """

    __slots__ = ("head", "length", "dest", "mul", "steps")

    def __init__(self, ops: Sequence[Instruction]) -> None:
        self.head = ops[0]
        self.length = len(ops)
        assert self.head.dst is not None
        self.dest: int = self.head.dst
        #: Per op: True where it takes the MUL port and latency.
        self.mul = np.array([op.alu_op is AluOp.MUL for op in ops])
        # The tail folded once: consecutive immediate ADDs are one add
        # (mod 2**64, like every ALU result).
        steps: List[Tuple[AluOp, int]] = []
        for op in ops[1:]:
            assert op.alu_op is not None
            if op.alu_op is AluOp.ADD and steps and steps[-1][0] is AluOp.ADD:
                steps[-1] = (AluOp.ADD, (steps[-1][1] + op.imm) & _VALUE_MASK)
            else:
                steps.append((op.alu_op, op.imm))
        self.steps = tuple(steps)

    def latencies(self, config: CoreConfig) -> np.ndarray:
        return np.where(self.mul, config.mul_latency, config.alu_latency)

    def value(self, source_value: Callable[[int], object]) -> object:
        """The last op's result, an int or a uint64 lane vector."""
        head = self.head
        assert head.src1 is not None and head.alu_op is not None
        lhs = source_value(head.src1)
        rhs = source_value(head.src2) if head.src2 is not None else head.imm
        value = _alu_any(head.alu_op, lhs, rhs)
        for alu_op, imm in self.steps:
            value = _alu_any(alu_op, value, imm)
        return value


def _alu_runs(trace: Sequence[object]) -> Dict[int, _Run]:
    """Every dependent ALU run of a trace, keyed by its first index."""
    runs: Dict[int, _Run] = {}
    index = 0
    while index < len(trace):
        head = trace[index].instruction  # type: ignore[attr-defined]
        first = index
        index += 1
        if head.op is not Opcode.ALU:
            continue
        ops = [head]
        while index < len(trace):
            op = trace[index].instruction  # type: ignore[attr-defined]
            if (
                op.op is not Opcode.ALU or op.src2 is not None
                or op.src1 != head.dst or op.dst != head.dst
            ):
                break
            ops.append(op)
            index += 1
        runs[first] = _Run(ops)
    return runs


#: Run boundaries depend only on a program's (immutable, cached)
#: dynamic trace, so they are found once per program.  A pure memo:
#: weakly keyed, it dies with the program and changes no result.
_RUN_PLANS: "weakref.WeakKeyDictionary[object, Dict[int, _Run]]" = (
    weakref.WeakKeyDictionary()
)


def _width_solve(
    floor: np.ndarray, rows: np.ndarray, first: int, width: int
) -> np.ndarray:
    """Rows ``first ..`` of ``X[n] = max(floor[n - first], X[n - width] + 1)``.

    ``rows`` holds X's earlier rows, which seed each residue class mod
    ``width``.  Along one class, ``X[n] - step`` is the running max of
    ``floor - step``, so one ``maximum.accumulate`` solves the block.
    """
    count, lanes = floor.shape
    step = (np.arange(count) // width)[:, None]
    padded = np.full(
        (-(-count // width) * width, lanes), _INT64_MIN, dtype=np.int64
    )
    body = padded[:count]
    np.subtract(floor, step, out=body)
    lo, hi = max(0, width - first), min(width, count)
    if lo < hi:
        np.maximum(
            body[lo:hi], rows[first + lo - width:first + hi - width] + 1,
            out=body[lo:hi],
        )
    classes = padded.reshape(-1, width, lanes)
    np.maximum.accumulate(classes, axis=0, out=classes)
    return body + step


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
        prediction: object,
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
    """A cache/TLB fill deferred to a future per-lane cycle vector.

    ``lanes`` is the lane set still waiting for it.
    """

    __slots__ = ("cycle", "paddr", "pid", "vaddr", "lanes")

    def __init__(
        self, cycle: np.ndarray, paddr: int, pid: int, vaddr: int,
        lanes: object,
    ) -> None:
        self.cycle = cycle
        self.paddr = paddr
        self.pid = pid
        self.vaddr = vaddr
        self.lanes = lanes


class _Level:
    """One shared cache (or the TLB) and the entries only some lanes hold.

    The shared structure holds what every lane holds; ``private`` maps a
    line (or page) present in some lanes only to its lane mask.  A set
    that a lane-dependent access touched goes into ``sets``: its shared
    recency order no longer speaks for every lane, so later accesses to
    it take the per-lane path and a fill that would evict from it
    diverges.  The hooks give the shared structure's presence test,
    recency touch, fill, set of a key, valid entries in that set, and
    associativity.
    """

    __slots__ = (
        "name", "lanes", "ways", "private", "sets",
        "_contains", "_touch", "_fill", "_slot", "_used",
    )

    def __init__(
        self,
        name: str,
        lanes: int,
        ways: int,
        contains: Callable[[Hashable], bool],
        touch: Callable[[Hashable], object],
        fill: Callable[[Hashable], object],
        slot: Callable[[Hashable], Hashable],
        used: Callable[[Hashable], int],
    ) -> None:
        self.name = name
        self.lanes = lanes
        self.ways = ways
        self.private: Dict[Hashable, np.ndarray] = {}
        self.sets: Set[Hashable] = set()
        self._contains = contains
        self._touch = touch
        self._fill = fill
        self._slot = slot
        self._used = used

    def clean(self, key: Hashable) -> bool:
        """True while every lane agrees on ``key``'s set."""
        return not self.sets or self._slot(key) not in self.sets

    def present(self, key: Hashable) -> np.ndarray:
        """The lanes that hold ``key``."""
        if self._contains(key):
            return np.ones(self.lanes, dtype=bool)
        mask = self.private.get(key)
        return np.zeros(self.lanes, dtype=bool) if mask is None else mask

    def touch(self, key: Hashable, lanes: np.ndarray) -> None:
        """A hit's recency update in ``lanes`` (which all hold ``key``)."""
        if not lanes.any():
            return
        slot = self._slot(key)
        if lanes.all() and slot not in self.sets:
            self._touch(key)
        else:
            self.sets.add(slot)

    def fill(self, key: Hashable, lanes: np.ndarray) -> None:
        """Install ``key`` in ``lanes``; where present it only refreshes."""
        if not lanes.any():
            return
        slot = self._slot(key)
        if lanes.all() and slot not in self.sets:
            # Every lane alike: the shared structure's fill is exact,
            # eviction included.
            self._fill(key)
            return
        self.sets.add(slot)
        need = lanes & ~self.present(key)
        if not need.any():
            return
        held = np.full(self.lanes, self._used(key), dtype=np.int64)
        for other, mask in self.private.items():
            if self._slot(other) == slot:
                held += mask
        if bool(np.any(held[need] >= self.ways)):
            raise LaneDivergence(
                f"a lane-private fill would evict from {self.name}"
            )
        mask = need | self.private.get(key, False)
        if mask.all():
            # Every lane holds it now; the shared set has a free way
            # (the check above), so the shared fill evicts nothing.
            self.private.pop(key, None)
            self._fill(key)
        else:
            self.private[key] = mask

    def discard(self, key: Hashable) -> None:
        """Forget ``key`` in every lane (the shared side is invalidated
        by the caller)."""
        self.private.pop(key, None)


class LockstepMachine:
    """Lockstep simulation of many same-program trials (one hypothesis).

    Every lane of a cell's chunk runs in this one machine, from the
    trial's start to its measurement: an access that would make the
    caches or TLB lane-dependent fills lane-private entries of the
    :class:`_Level` overlays instead of splitting the batch.

    Args:
        core_config: Effective core configuration (defense-adjusted).
        memory_config: Effective memory configuration; the hierarchy it
            builds is shared by every lane, with the overlays on top.
        predictor: The shared value predictor chain.  Its state stays
            lane-uniform as long as every applied training is uniform;
            the first non-uniform training splits it into per-lane
            replicas.  Its random streams are rebound per lane.
        lane_seeds: Per-lane trial seeds.  Each lane models a fresh
            machine under its own seed: per-lane jitter and predictor
            streams, and per-lane backing-store defaults.
        shared_region: ``(base, size)`` registered on the private
            memory system, mirroring ``AttackRunner._build_env``.
    """

    def __init__(
        self,
        core_config: CoreConfig,
        memory_config: MemoryConfig,
        predictor: ValuePredictor,
        lane_seeds: Sequence[int],
        shared_region: Tuple[int, int],
    ) -> None:
        self.lanes = len(lane_seeds)
        self.config = core_config
        self.mem = MemorySystem(memory_config)
        self.mem.add_shared_region(*shared_region)
        self.predictor = predictor
        #: A bare NoPredictor ignores the trained value (train only
        #: bumps an aggregate counter that never reaches a result), so
        #: non-uniform train values need no collapse and no lane split.
        self._train_value_blind = type(predictor) is NoPredictor
        #: A predictor key carries one address; lanes may disagree on
        #: it only where no link of the chain indexes by address.
        self._keys_read_address = _reads_address(predictor)
        self.cycle = np.zeros(self.lanes, dtype=np.int64)
        self.simulated_cycles = 0
        self.total_retired = 0
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
        #: Per-lane backing-store default seeds: unwritten addresses
        #: read ``splitmix64(paddr ^ seed_k)`` in lane ``k``, matching a
        #: scalar machine reset under ``seed_k``.
        self._lane_default_seeds = np.array(
            [s & _VALUE_MASK for s in lane_seeds], dtype=np.uint64
        )
        # Per-lane trial streams, exactly the scalar per-trial reset:
        # lane ``k`` draws L2 jitter from ``Random(seed_k ^ 0xC0FFEE)``
        # and DRAM latency from ``Random(seed_k ^ 0x33)``, and its
        # predictor draws from the chain's
        # :func:`~repro.vp.base.trial_stream` under ``seed_k``.
        self._rng_mem = [random.Random(s ^ 0xC0FFEE) for s in lane_seeds]
        self._rng_dram = [random.Random(s ^ 0x33) for s in lane_seeds]
        # The lane-private overlays: TLB pages keyed (pid, page base),
        # cache lines keyed by line address.
        mem = self.mem
        tlb = mem.tlb
        self._tlb = _Level(
            "the TLB", self.lanes, tlb.entries,
            contains=lambda page: tlb.contains(*page),
            touch=lambda page: tlb.access(*page),
            fill=lambda page: tlb.access(*page),
            slot=lambda page: 0,
            used=lambda page: tlb.occupancy(),
        )
        self._l1, self._l2 = (
            _Level(
                cache.name, self.lanes, cache.ways,
                contains=cache.contains, touch=cache.lookup,
                fill=cache.fill, slot=cache.set_index,
                used=cache.set_occupancy,
            )
            for cache in (mem.l1, mem.l2)
        )

        def lane_stream(salt: int) -> _LaneStream:
            stream = _LaneStream(
                [trial_stream(salt, seed) for seed in lane_seeds]
            )
            self._lane_streams.append(stream)
            return stream

        predictor.bind_streams(lane_stream)

    # -- value plumbing -------------------------------------------------
    def _value_at(self, paddr: object) -> object:
        """Architectural value at ``paddr`` (an int or a lane vector):
        shared write or lane default."""
        store = self.mem.store_values
        if isinstance(paddr, np.ndarray):
            values = _splitmix64_vec(paddr ^ self._lane_default_seeds)
            for address in np.unique(paddr).tolist():
                if store.is_written(address):
                    values[paddr == address] = store.read(address)
            return values
        if store.is_written(paddr):  # type: ignore[arg-type]
            return store.read(paddr)  # type: ignore[arg-type]
        return _splitmix64_vec(np.uint64(paddr) ^ self._lane_default_seeds)

    # -- per-lane latency draws ----------------------------------------
    def _draw_l2_jitter(self) -> np.ndarray:
        jitter = self.mem.config.l2_jitter
        return np.fromiter(
            (rng.randint(0, jitter) for rng in self._rng_mem),
            dtype=np.int64,
            count=self.lanes,
        )

    def _dram_latency(self, rng: random.Random) -> int:
        """One DRAM latency, mirroring ``DramModel.access_latency``."""
        config = self.mem.config.dram
        latency = config.base_latency
        if config.jitter:
            latency += rng.randint(0, config.jitter)
        if config.tail_extra and rng.random() < config.tail_probability:
            latency += config.tail_extra
        return latency

    def _draw_dram(self) -> np.ndarray:
        """Per-lane DRAM latency."""
        return np.fromiter(
            (self._dram_latency(rng) for rng in self._rng_dram),
            dtype=np.int64,
            count=self.lanes,
        )

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

    # -- lane-private walks ----------------------------------------------
    def _page(self, pid: int, vaddr: int) -> Tuple[int, int]:
        size = self.mem.tlb.page_size
        return pid, vaddr - vaddr % size

    def _shared_only(
        self, pid: int, vaddr: int, paddr: Optional[int] = None,
    ) -> bool:
        """True while every lane agrees on the TLB page and both cache
        sets an access to ``vaddr`` touches."""
        if not (self._tlb.sets or self._l1.sets or self._l2.sets):
            return True
        if paddr is None:
            paddr = self.mem.translate(pid, vaddr)
        line = line_address(paddr, self.mem.config.line_size)
        return (
            self._tlb.clean(self._page(pid, vaddr))
            and self._l1.clean(line) and self._l2.clean(line)
        )

    def _walk(
        self, pid: int, vaddr: object, lanes: object, fill: object,
    ) -> Tuple[object, object, object]:
        """The timed-load walk of ``MemorySystem.load`` in ``lanes``.

        ``vaddr`` is an int or a lane vector; ``fill`` is the lane set
        that takes the fill path, and the other lanes of ``lanes`` take
        the ``fill=False`` one.  An access every lane makes alike, to
        sets every lane agrees on, runs the shared walks above; any
        other walks each address's lanes through the overlays (exact
        for the first kind too, but slower).  Returns ``(latency,
        l1_hit, paddr)``: the hit is a lane set, the latency and the
        physical address an int or a lane vector (placeholders outside
        ``lanes``).
        """
        if (
            lanes is True and isinstance(fill, bool)
            and not isinstance(vaddr, np.ndarray)
            and self._shared_only(pid, vaddr)  # type: ignore[arg-type]
        ):
            if fill:
                return self._load_access(pid, vaddr)  # type: ignore[arg-type]
            return self._load_access_nofill(pid, vaddr)  # type: ignore[arg-type]
        count = self.lanes
        walking = _lane_mask(lanes, count)
        filling = walking & _lane_mask(fill, count)
        addrs = np.broadcast_to(np.asarray(vaddr, dtype=np.uint64), (count,))
        latency = np.zeros(count, dtype=np.int64)
        hit = np.zeros(count, dtype=bool)
        paddrs = np.zeros(count, dtype=np.uint64)
        for address in np.unique(addrs[walking]).tolist():
            group = walking & (addrs == address)
            paddr = self.mem.translate(pid, address)
            self._walk_lanes(
                pid, address, paddr, group, filling & group, latency, hit,
            )
            paddrs[group] = paddr
        if not isinstance(vaddr, np.ndarray):
            return latency, _lanes(hit), paddr
        return latency, _lanes(hit), paddrs

    def _walk_lanes(
        self, pid: int, vaddr: int, paddr: int, lanes: np.ndarray,
        fill: np.ndarray, latency: np.ndarray, hit: np.ndarray,
    ) -> None:
        """One address's walk in ``lanes``, stage for stage like
        ``MemorySystem.load``; writes their latency and L1 hit."""
        config = self.mem.config
        page = self._page(pid, vaddr)
        tlb_hit = self._tlb.present(page)
        self._tlb.fill(page, fill)
        line = line_address(paddr, config.line_size)
        l1_hit = self._l1.present(line) & lanes
        self._l1.touch(line, fill & l1_hit)
        miss = lanes & ~l1_hit
        l2_hit = self._l2.present(line) & miss
        self._l2.touch(line, fill & l2_hit)
        latency[lanes] = config.l1_hit_latency + np.where(
            tlb_hit[lanes], 0, self.mem.tlb.walk_latency
        )
        latency[miss] += config.l2_hit_latency
        # Each lane draws exactly where its scalar machine would.
        if config.l2_jitter:
            for lane in np.flatnonzero(l2_hit).tolist():
                latency[lane] += self._rng_mem[lane].randint(
                    0, config.l2_jitter
                )
        for lane in np.flatnonzero(miss & ~l2_hit).tolist():
            latency[lane] += self._dram_latency(self._rng_dram[lane])
        hit |= l1_hit
        self._l2.fill(line, fill & miss)
        self._l1.fill(line, fill & miss)

    def _flush(self, pid: int, vaddr: int) -> None:
        """``MemorySystem.flush`` in every lane, lane-private lines too."""
        mem = self.mem
        mem.flush(pid, vaddr)
        line = line_address(mem.translate(pid, vaddr), mem.config.line_size)
        self._l1.discard(line)
        self._l2.discard(line)

    def _key_address(self, addr: object, lanes: object) -> int:
        """The one address a predictor key carries for ``lanes``.

        The lanes may disagree on it only where no link of the chain
        indexes by address (then the key's address is never read).
        """
        if not isinstance(addr, np.ndarray):
            return addr  # type: ignore[return-value]
        picked = addr if lanes is True else addr[lanes]  # type: ignore[index]
        head = int(picked[0])
        if self._keys_read_address and not bool(np.all(picked == head)):
            raise LaneDivergence(
                "lane-varying address indexes the value predictor"
            )
        return head

    # -- deferred fill events -------------------------------------------
    def _schedule_fill(
        self, cycle: np.ndarray, paddr: int, pid: int, vaddr: int,
        lanes: object = True,
    ) -> None:
        self._fill_events.append(_FillEvent(cycle, paddr, pid, vaddr, lanes))

    def _deferred_fill(self, event: _FillEvent, lanes: object) -> None:
        """``MemorySystem.apply_deferred_fill`` in ``lanes``."""
        if lanes is True and self._shared_only(
            event.pid, event.vaddr, event.paddr
        ):
            self.mem.apply_deferred_fill(event.paddr, event.pid, event.vaddr)
            return
        mask = _lane_mask(lanes, self.lanes)
        self._tlb.fill(self._page(event.pid, event.vaddr), mask)
        line = line_address(event.paddr, self.mem.config.line_size)
        self._l2.fill(line, mask)
        self._l1.fill(line, mask)

    def _apply_fill_events(
        self, issue: Optional[np.ndarray], lanes: object = True,
    ) -> None:
        """Apply every due deferred fill before an access at ``issue``.

        A fill is due in each accessing lane (of ``lanes``) that still
        waits for it and whose issue is past its cycle (verify and
        commit both run before issue within a cycle, so equality
        counts).  It lands in those lanes — lane-private where the
        others keep waiting — so each lane fills between the same two
        of its accesses as its scalar machine.  Two due fills whose
        order crosses in some lane diverge.  ``issue=None`` (end of
        run) applies everything.
        """
        events = self._fill_events
        if not events:
            return
        remaining: List[_FillEvent] = []
        last_applied: Optional[np.ndarray] = None
        for event in events:
            due = _lanes_and(event.lanes, lanes)
            if issue is not None and due is not False:
                due = _lanes_and(due, _lanes(event.cycle <= issue))
            if due is False:
                remaining.append(event)
                continue
            if last_applied is not None:
                behind = last_applied > event.cycle
                if due is not True:
                    behind &= due  # type: ignore[operator]
                if bool(np.any(behind)):
                    raise LaneDivergence(
                        "deferred fills reorder across lanes"
                    )
            self._deferred_fill(event, due)
            if due is True:
                last_applied = event.cycle
            else:
                last_applied = np.where(
                    due, event.cycle,  # type: ignore[arg-type]
                    _INT64_MIN if last_applied is None else last_applied,
                )
            event.lanes = _lanes_and(event.lanes, _lanes_not(due))
            if event.lanes is not False:
                remaining.append(event)
        self._fill_events = remaining

    # -- predictor ledger -----------------------------------------------
    def _enqueue_train(
        self,
        key: AccessKey,
        value: object,
        prediction: object,
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

    def _apply_due_shared(
        self, issue: Optional[np.ndarray], lanes: object = True,
    ) -> None:
        """Apply due trainings to the one shared predictor, in order.

        The scalar core verifies/trains in ``(complete_cycle, seq)``
        order; a pending training may apply only when it is uniformly
        first by that order across lanes *and* uniformly due.  Any
        ambiguity — crossing completions, a straddling mask, a
        non-uniform trained value — forks the predictor per lane
        (:meth:`_begin_split`) instead of guessing.  Only the consulting
        ``lanes`` know their issue cycle, so a training due there while
        other lanes do not consult is a straddle too.
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
                if lanes is not True:
                    due &= lanes  # type: ignore[operator]
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
                # a per-lane value needs neither a collapse nor a lane
                # split.
                value = 0
            elif isinstance(value, np.ndarray):
                head = value.flat[0]
                if not bool(np.all(value == head)):
                    self._begin_split()
                    return
                value = int(head)
            prediction = first.prediction
            if prediction is not None and isinstance(
                prediction.value, np.ndarray
            ):
                prediction = self._stand_in(prediction)
                if prediction is None:
                    self._begin_split()
                    return
            self.predictor.train(first.key, int(value), prediction)
            self._applied_max = (
                first.complete.copy() if self._applied_max is None
                else np.maximum(self._applied_max, first.complete)
            )
            self._pending_trains.remove(first)

    def _apply_due_split(
        self, issue: Optional[np.ndarray], lanes: object = True,
    ) -> None:
        """Per-lane replay of due trainings in (complete, seq) order, in
        the consulting ``lanes``."""
        pending = self._pending_trains
        if not pending:
            return
        replicas = self._split
        assert replicas is not None and self._applied_max is not None
        for lane in range(self.lanes):
            if lanes is not True and not lanes[lane]:  # type: ignore[index]
                continue
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
                replicas[lane].train(
                    train.key, value, _lane_prediction(train.prediction, lane)
                )
                self._applied_max[lane] = max(
                    self._applied_max[lane], int(train.complete[lane])
                )
        self._pending_trains = [
            train for train in pending
            if train.done is None or not bool(np.all(train.done))
        ]

    def _stand_in(self, prediction: Prediction) -> Optional[Prediction]:
        """A one-value stand-in for a lane-valued prediction, or None.

        The shared chain can train on a lane-valued prediction only when
        the wrapper that made it drops it before training its inner
        predictor, and every wrapper above that one only counts the
        prediction in its stats and forwards it.  The lanes then differ
        in nothing but those stats, which no result reads, and lane 0's
        prediction stands in for all of them, so ``_record_train`` never
        sees a lane vector.  None means the chain must split.
        """
        link: object = self.predictor
        while type(link) in _FORWARDING_WRAPPERS:
            if link.name == prediction.source:  # type: ignore[attr-defined]
                if type(link) not in _DROPPING_WRAPPERS:
                    return None
                return _lane_prediction(prediction, 0)
            link = link.inner  # type: ignore[attr-defined]
        return None

    def _apply_due(
        self, issue: Optional[np.ndarray], lanes: object = True,
    ) -> None:
        if self._split is None:
            self._apply_due_shared(issue, lanes)
        if self._split is not None:
            self._apply_due_split(issue, lanes)

    def _consult_predictor(
        self, key: AccessKey, issue: np.ndarray, lanes: object = True,
    ) -> object:
        """Predict for a VPS-engaged load, applying due trainings first.

        The scalar core trains at each load's completion cycle and
        predicts at each miss's issue cycle; completion runs before
        issue within a cycle, so a pending training applies iff its
        completion is <= the consulting issue in *every* lane.  The
        applied-max guard catches the converse: a training already
        applied *after* this issue in some lane means that lane's
        scalar machine would not have seen it yet.

        Only ``lanes`` consult (the others hit in L1 or run no squash
        window): the shared chain's random streams draw in them alone,
        and its other side effects are stats no result reads.  Returns
        None, a :class:`Prediction` (whose value may be a lane vector)
        or, after a split, a :class:`_SplitPrediction`; post-split
        replicas that disagree on whether to predict diverge.
        """
        self._apply_due(issue, lanes)
        if self._applied_max is not None:
            late = self._applied_max > issue
            if lanes is not True:
                late &= lanes  # type: ignore[operator]
            if bool(np.any(late)):
                raise LaneDivergence(
                    "train/predict order differs across lanes"
                )
        if self._split is not None:
            predictions = [
                replica.predict(key)
                if lanes is True or lanes[lane] else None  # type: ignore[index]
                for lane, replica in enumerate(self._split)
            ]
            predicting = {
                prediction is not None
                for lane, prediction in enumerate(predictions)
                if lanes is True or lanes[lane]  # type: ignore[index]
            }
            if len(predicting) > 1:
                raise LaneDivergence(
                    "post-split replicas disagree on whether to predict"
                )
            return _SplitPrediction(predictions) if True in predicting else None
        if lanes is True:
            return self.predictor.predict(key)
        for stream in self._lane_streams:
            stream.active = lanes  # type: ignore[assignment]
        try:
            return self.predictor.predict(key)
        finally:
            for stream in self._lane_streams:
                stream.active = None

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
        runs = _RUN_PLANS.get(program)
        if runs is None:
            runs = _RUN_PLANS[program] = _alu_runs(trace)

        lanes = self.lanes
        start = self.cycle
        one = 1  # numpy broadcasts python ints; keep the hot path terse
        fetch_width = config.fetch_width
        commit_width = config.commit_width
        rob_size = config.rob_size
        track_spec = config.delay_speculative_fills
        trace_length = len(trace)

        # Column n is trace entry n; D and R hold every column's
        # dispatch and retire rows.  A squash window writes transient
        # dispatch rows ahead of the main pass, which overwrites them
        # when it refetches the same entries.
        D = np.empty((trace_length, lanes), dtype=np.int64)
        R = np.empty((trace_length, lanes), dtype=np.int64)
        rename: Dict[int, _Col] = {}
        arch: Dict[int, object] = {}
        stall: Optional[np.ndarray] = None
        fence_gate: Optional[np.ndarray] = None
        last_mem: Optional[np.ndarray] = None
        prev_mem: Optional[np.ndarray] = None
        rdtsc_values: List[Tuple[int, _LaneInt]] = []
        # Issue-cycle logs (single rows and blocks of rows) for the
        # post-hoc width/port oversubscription guards (the recurrences
        # assume the caps never bind).
        width_issues: List[np.ndarray] = []
        alu_issues: List[np.ndarray] = []
        mul_issues: List[np.ndarray] = []
        # Rows logged for a masked squash window so far: each gets its
        # own negative sentinel in the lanes outside the window.
        off_window_rows = 0

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

        def unverified(load_col: _Col, issue: np.ndarray) -> object:
            """The lanes where a predicted load is unverified at ``issue``.

            Verification happens at the load's completion, which runs
            before the issue stage within a cycle.
            """
            assert load_col.C is not None
            return _lanes(issue < load_col.C)

        def spec_source(
            regs: Tuple[int, ...], issue: np.ndarray
        ) -> Tuple[Optional[_Col], object]:
            """Youngest unverified predicted-load ancestor (scalar
            ``_speculative_source``), tracked only under the D defense,
            and the lanes where it is one.

            A verification that straddles the issue leaves a source in
            some lanes only; an older source in the other lanes would
            make the source itself lane-varying, which diverges.
            """
            found: Dict[int, Tuple[_Col, object]] = {}

            def note(source: _Col, live: object) -> None:
                if live is not False:
                    prior = found.get(source.seq)
                    if prior is not None:
                        live = _lanes_or(prior[1], live)
                    found[source.seq] = (source, live)

            for reg in regs:
                producer = rename.get(reg)
                if producer is None:
                    continue
                if producer.pred_load is not False:
                    note(producer, _lanes_and(
                        producer.pred_load, unverified(producer, issue),
                    ))
                if producer.spec_col is not None:
                    # Where the producer is itself a live prediction,
                    # the younger producer wins below anyway.
                    note(producer.spec_col, _lanes_and(
                        producer.spec_lanes,
                        unverified(producer.spec_col, issue),
                    ))
            if not found:
                return None, False
            order = sorted(found, reverse=True)
            best, live = found[order[0]]
            for seq in order[1:]:
                if _lanes_and(found[seq][1], _lanes_not(live)) is not False:
                    raise LaneDivergence(
                        "speculation source differs across lanes"
                    )
            return best, live

        def dispatch_at(n: int) -> np.ndarray:
            """Dispatch row of column ``n``, recorded in ``D``."""
            dispatch = D[n - 1] if n else start
            if n >= fetch_width:
                dispatch = np.maximum(dispatch, D[n - fetch_width] + one)
            if stall is not None:
                dispatch = np.maximum(dispatch, stall)
            if fence_gate is not None:
                dispatch = np.maximum(dispatch, fence_gate)
            if n >= rob_size:
                dispatch = np.maximum(dispatch, R[n - rob_size])
            D[n] = dispatch
            return dispatch

        def retire_cycle(complete: np.ndarray) -> np.ndarray:
            """Retire row of the main pass's current column ``index``."""
            retire = complete
            if index:
                retire = np.maximum(retire, R[index - 1])
            if index >= commit_width:
                retire = np.maximum(retire, R[index - commit_width] + one)
            return retire

        # -- dependent ALU runs: one solve per block of rows -----------
        def dispatch_rows(first: int, count: int) -> np.ndarray:
            """Dispatch rows of columns ``first .. first+count-1``.

            ``count <= rob_size``, so every ROB gate is an earlier row
            that is already scheduled.  D and R never decrease, so the
            previous row, stall, fence and ROB terms are one floor per
            row and only the fetch-width term needs :func:`_width_solve`.
            """
            floor = D[first - 1] if first else start
            if stall is not None:
                floor = np.maximum(floor, stall)
            if fence_gate is not None:
                floor = np.maximum(floor, fence_gate)
            floors = np.empty((count, lanes), dtype=np.int64)
            floors[:] = floor
            gated = max(0, rob_size - first)
            if gated < count:
                np.maximum(
                    floors[gated:],
                    R[first + gated - rob_size:first + count - rob_size],
                    out=floors[gated:],
                )
            rows = _width_solve(floors, D, first, fetch_width)
            D[first:first + count] = rows
            return rows

        def issue_rows(
            dispatch: np.ndarray, head: np.ndarray, latency: np.ndarray
        ) -> Tuple[np.ndarray, np.ndarray]:
            """Issue and value-ready rows of a dependent chain.

            Op ``k`` issues at ``max(D[k] + 1, VR[k-1])`` (op 0 at
            ``head``) and is ready ``latency[k]`` later.  With ``S`` the
            prefix sum of the latencies, ``VR - S`` is a running max of
            ``D + 1 - S[k-1]``.
            """
            total = np.cumsum(latency)
            ready = dispatch + (one + latency - total)[:, None]
            ready[0] = head
            np.maximum.accumulate(ready, axis=0, out=ready)
            ready += total[:, None]
            return ready - latency[:, None], ready

        def log_issues(issue: np.ndarray, mul: np.ndarray) -> None:
            width_issues.append(issue)
            if not mul.any():
                alu_issues.append(issue)
            elif mul.all():
                mul_issues.append(issue)
            else:
                alu_issues.append(issue[~mul])
                mul_issues.append(issue[mul])

        def retire_rows(first: int, ready: np.ndarray) -> None:
            """Retire rows of a chain's columns ``first ..``.

            Completion grows along a chain, so the previous row's R is
            the whole running floor and only the commit-width term needs
            :func:`_width_solve`.
            """
            floor = np.maximum(ready, R[first - 1]) if first else ready
            R[first:first + len(ready)] = _width_solve(
                floor, R, first, commit_width
            )

        def run_column(first: int, run: _Run) -> _Col:
            """Schedule one dependent ALU run in the main pass.

            Returns the run's rename column (its last op).  Blocks of at
            most ``rob_size`` ops keep every ROB gate behind the block.
            """
            regs = run.head.source_registers()
            latency = run.latencies(config)
            spec: Optional[_Col] = None
            live: object = False
            ready = start
            for lo in range(0, run.length, rob_size):
                count = min(rob_size, run.length - lo)
                dispatch = dispatch_rows(first + lo, count)
                if lo:
                    head = np.maximum(dispatch[0] + one, ready[-1])
                else:
                    head = source_ready(dispatch[0] + one, regs)
                    if track_spec:
                        spec, live = spec_source(regs, head)
                issue, ready = issue_rows(
                    dispatch, head, latency[lo:lo + count]
                )
                retire_rows(first + lo, ready)
                log_issues(issue, run.mul[lo:lo + count])
            col = _Col()
            col.seq = first + run.length - 1
            col.VR = col.C = ready[-1]
            if spec is not None:
                # Op 0 found its own source; each later op inherits it
                # while it is unverified at that op's issue.  Issue grows
                # along the run in every lane, so the last op decides.
                live = _lanes_and(live, unverified(spec, issue[-1]))
                if live is not False:
                    col.spec_col, col.spec_lanes = spec, live
            col.result = run.value(source_value)
            return col

        def run_transient_window(
            load_col: _Col, predicted: object, pred_vr: np.ndarray,
            window_start: int, window: Optional[np.ndarray],
        ) -> None:
            """Execute the mispredicted load's squash window transiently.

            Models the scalar core's pre-squash execution of the ops
            younger than the load, up to the next FENCE: dispatch and
            issue follow the same recurrences over the combined
            main+transient column sequence, and an op takes effect only
            when its issue cycle precedes the squash cycle ``C`` in
            every lane of the window.  Register writes go to a local
            rename overlay (seeded with the predicted value) that the
            main pass never sees — the post-squash refetch re-executes
            the same trace entries architecturally.  Side effects that
            survive the squash — cache/TLB walks of issued loads, and
            their masked trainings — land on the caches (lane-private
            where the lanes differ) and the ledger.

            ``window`` is None when every lane squashes, else the mask
            of the lanes that do.  The others verified correct and never
            run this window: their rows here are placeholders the main
            pass overwrites, the issue-width and port guards never count
            them, and a transient memory access walks, consults and
            trains in the window's lanes alone.
            """
            squash_c = load_col.C
            assert squash_c is not None
            outside: Optional[np.ndarray] = None
            if window is not None:
                outside = ~window
                # Outside the window, every cycle is past the squash.
                squash_c = np.where(window, squash_c, _INT64_MIN)
            far = np.full(lanes, _FAR, dtype=np.int64)
            need_taint = config.delay_speculative_fills
            n_load = window_start - 1
            trigger_dest = trace[n_load].instruction.destination_register()
            # reg -> (value-ready vector | None if never ready, value,
            #         lanes where it is speculatively tainted)
            overlay: Dict[int, Tuple[Optional[np.ndarray], object, object]] = {}
            if trigger_dest is not None:
                overlay[trigger_dest] = (pred_vr, predicted, True)
            t_last_mem, t_prev_mem = last_mem, prev_mem

            def every(pre: np.ndarray) -> np.ndarray:
                """``pre`` in every lane of the window, per row."""
                if outside is not None:
                    pre = pre | outside
                return pre.all(axis=-1)

            def pre_squash(cycles: np.ndarray) -> bool:
                """all(< C) -> True; all(>= C) -> False; mixed diverges."""
                pre = cycles < squash_c
                if bool(every(pre)):
                    return True
                if not bool(np.any(pre)):
                    return False
                raise LaneDivergence(
                    "squash window edge straddles lanes"
                )

            def counted(rows: np.ndarray) -> np.ndarray:
                """Issue rows as the width and port guards count them.

                Lanes outside the window get negative sentinels, one per
                row, which no cycle and no other sentinel can equal.
                """
                nonlocal off_window_rows
                if outside is None:
                    return rows
                rows = np.atleast_2d(rows)
                marks = off_window_rows + 1 + np.arange(len(rows))
                off_window_rows += len(rows)
                return np.where(outside, -marks[:, None], rows)

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

            def t_tainted(regs: Tuple[int, ...], issue: np.ndarray) -> object:
                """The lanes where a source is an unverified prediction."""
                taint: object = False
                for reg in regs:
                    if reg in overlay:
                        taint = _lanes_or(taint, overlay[reg][2])
                        continue
                    producer = rename.get(reg)
                    if producer is None:
                        continue
                    if producer.pred_load is not False:
                        taint = _lanes_or(taint, _lanes_and(
                            producer.pred_load, unverified(producer, issue),
                        ))
                    if producer.spec_col is not None:
                        taint = _lanes_or(taint, _lanes_and(
                            producer.spec_lanes,
                            unverified(producer.spec_col, issue),
                        ))
                return taint

            def first_late(pre: np.ndarray) -> int:
                """Index of the first row not pre-squash in every lane."""
                rows = every(pre)
                return len(rows) if bool(rows.all()) else int(
                    np.argmin(rows)
                )

            def transient_run(first: int, run: _Run) -> bool:
                """One dependent ALU run; False when the window ends in it.

                Row tests replay the per-op sequence: op ``k``'s
                dispatch test, then its issue test once op ``k-1``
                issued.  Issue exceeds dispatch, so the first late issue
                row never follows the first late dispatch row; each lane
                is monotone along the run, so only that row can straddle.
                """
                # The ROB slot of a later row waits on a transient op
                # that never retires: dispatch stops there.
                count = min(run.length, n_load + rob_size - first + 1)
                if count <= 0:
                    return False
                dispatch = dispatch_rows(first, count)
                d_pre = dispatch < squash_c
                late_d = first_late(d_pre)
                regs = run.head.source_registers()
                head = t_source_vr(dispatch[0] + one, regs)
                issued = 0
                taint: object = False
                if head is not None:
                    issue, ready = issue_rows(
                        dispatch, head, run.latencies(config)[:count]
                    )
                    i_pre = issue < squash_c
                    issued = first_late(i_pre)
                    if issued:
                        log_issues(counted(issue[:issued]), run.mul[:issued])
                        if need_taint:
                            taint = t_tainted(regs, issue[0])
                    if issued < late_d and bool(i_pre[issued].any()):
                        raise LaneDivergence(
                            "squash window edge straddles lanes"
                        )
                if late_d < count:
                    if bool(d_pre[late_d].any()):
                        raise LaneDivergence(
                            "squash window edge straddles lanes"
                        )
                    return False
                if count < run.length:
                    return False
                overlay[run.dest] = (
                    (ready[-1], run.value(t_source_value), taint)
                    if issued == count else (None, None, False)
                )
                return True

            n = window_start
            while n < trace_length:
                spec = trace[n]
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
                if sop is Opcode.ALU:
                    run = runs[n]
                    if not transient_run(n, run):
                        break
                    n += run.length
                    continue
                if n - rob_size > n_load:
                    # The ROB slot waits on a transient op that never
                    # retires: dispatch stops here.
                    break
                dispatch = dispatch_at(n)
                if not pre_squash(dispatch):
                    break  # in-order dispatch: younger ops stop too
                n += 1

                dreg = sinstr.destination_register()
                if sop in (Opcode.NOP, Opcode.HALT):
                    issue = dispatch + one
                    if pre_squash(issue):
                        width_issues.append(counted(issue))
                    continue
                if sop is Opcode.LI:
                    issue = dispatch + one
                    if pre_squash(issue):
                        width_issues.append(counted(issue))
                        if dreg is not None:
                            overlay[dreg] = (
                                issue + config.alu_latency,
                                sinstr.imm & _VALUE_MASK,
                                False,
                            )
                    elif dreg is not None:
                        overlay[dreg] = (None, None, False)
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
                    width_issues.append(counted(issue))
                    t_prev_mem, t_last_mem = t_last_mem, issue
                    base: object = 0
                    if sinstr.src1 is not None:
                        base = t_source_value(sinstr.src1)
                    addr = _effective_address(base, sinstr.imm)
                    taint = (
                        t_tainted(sinstr.source_registers(), issue)
                        if need_taint else False
                    )
                    # The transient walk is the attack's persistent
                    # footprint: a fill survives the squash; deferred
                    # (D) and invisible (InvisiSpec) fills never land
                    # because the load never verifies nor retires.
                    # Lanes that walk alike share it; the others fill
                    # lane-private lines.
                    access: object = True if window is None else window
                    fill = False if config.invisispec else _lanes_and(
                        access, _lanes_not(taint)
                    )
                    self._apply_fill_events(issue, access)
                    latency, l1_hit, paddr = self._walk(
                        pid, addr, access, fill
                    )
                    value = self._value_at(paddr)
                    done = issue + latency
                    keyed, asks = self._vps_lanes(access, l1_hit)
                    key = AccessKey(
                        pc=spec.pc, addr=self._key_address(addr, keyed),
                        pid=pid,
                    ) if keyed is not False else None
                    nested = self._consult_predictor(
                        key, issue, asks,  # type: ignore[arg-type]
                    ) if asks is not False else None
                    if nested is not None and (
                        n == trace_length
                        or trace[n].instruction.op is not Opcode.FENCE
                    ):
                        # Only a FENCE next keeps a nested prediction's
                        # value from every younger op: then it is just
                        # a training, and a nested squash refetches
                        # nothing the outer squash does not refetch.
                        raise LaneDivergence(
                            "nested speculation in a squash window"
                        )
                    if key is not None:
                        # The VPS observes the value only in lanes
                        # where the load completed strictly before the
                        # squash (ties verify the older trigger first).
                        self._check_trained_lanes(nested, asks, keyed)
                        mask = done < squash_c
                        if keyed is not True:
                            mask &= keyed  # type: ignore[operator]
                        self._enqueue_train(
                            key, value, nested, done, mask=mask
                        )
                    if dreg is not None:
                        overlay[dreg] = (done, value, taint)
                    continue
                raise LaneDivergence(  # pragma: no cover - exhaustive
                    f"unhandled opcode {sop} in a squash window"
                )

        index = 0
        while index < trace_length:
            placed = trace[index]
            instr: Instruction = placed.instruction
            op = instr.op
            if op is Opcode.ALU:
                run = runs[index]
                rename[run.dest] = run_column(index, run)
                index += run.length
                continue
            col = _Col()
            col.seq = index
            dispatch = dispatch_at(index)

            squash: object = False
            predicted: object = None
            trig_vr: Optional[np.ndarray] = None
            if op in (Opcode.FENCE, Opcode.RDTSC):
                # Serialising: executes at the ROB head once drained.
                retire = np.maximum(dispatch + one, retire_cycle(dispatch))
                col.VR = col.C = col.R = retire
                if op is Opcode.FENCE:
                    fence_gate = retire
                else:
                    col.result = retire  # RDTSC reads its retire cycle
                    rdtsc_values.append((placed.pc, _LaneInt(retire)))
            elif op in (Opcode.NOP, Opcode.HALT):
                issue = dispatch + one
                width_issues.append(issue)
                col.VR = col.C = issue + one
                col.R = retire_cycle(col.C)
            elif op is Opcode.LI:
                issue = dispatch + one
                width_issues.append(issue)
                col.result = instr.imm & _VALUE_MASK
                col.VR = col.C = issue + config.alu_latency
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
                base: object = 0
                if instr.src1 is not None:
                    base = source_value(instr.src1)
                addr = _uniform_int(
                    _effective_address(base, instr.imm), "effective address"
                )
                if op is Opcode.FLUSH:
                    self._apply_fill_events(issue)
                    self._flush(pid, addr)
                    col.VR = col.C = issue + self.mem.config.flush_latency
                    col.R = retire_cycle(col.C)
                else:
                    spec_col, spec_lanes = (
                        spec_source(instr.source_registers(), issue)
                        if track_spec else (None, False)
                    )
                    squash, predicted, trig_vr = self._load_column(
                        col, pid, placed.pc, addr, issue, retire_cycle,
                        spec_col, spec_lanes,
                    )
            else:  # pragma: no cover - exhaustive over Opcode
                raise LaneDivergence(f"unhandled opcode {op}")

            R[index] = col.R
            destination = instr.destination_register()
            if destination is not None:
                rename[destination] = col

            if squash is not False:
                # The scalar core dispatched (and possibly issued)
                # younger ops between the load's issue and its
                # verification; squashing discards their register
                # results, but an issued transient *memory* op has
                # already walked the caches — the persistent channel.
                # Execute the window transiently, then refetch right
                # after the load with the penalty applied, in the lanes
                # that squash.
                assert trig_vr is not None and col.C is not None
                window = None if squash is True else squash
                run_transient_window(
                    col, predicted, trig_vr, index + 1, window,  # type: ignore[arg-type]
                )
                penalty = col.C + config.squash_penalty
                if window is not None:
                    penalty = np.where(window, penalty, 0)
                stall = (
                    penalty if stall is None else np.maximum(stall, penalty)
                )
            index += 1

        end = R[-1].copy()
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
        self.total_retired += trace_length * lanes
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
            retired=trace_length,
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
        spec_lanes: object,
    ) -> Tuple[object, object, Optional[np.ndarray]]:
        """Schedule one load column.

        Returns ``(squash, predicted value, speculative value-ready)``.
        ``squash`` is the lane set whose prediction was wrong: False,
        True (every lane) or a mask.  The last two feed the transient
        window's overlay (consumers issued pre-squash saw the predicted
        value at the *early* value-ready cycle, not the post-verify one
        stored on the column).
        """
        config = self.config
        invisi = config.invisispec
        # Under D, the fill waits for the speculation source's verify
        # in the lanes where the source is live, and lands now in the
        # others.
        defer: object = (
            spec_lanes if not invisi and config.delay_speculative_fills
            and spec_col is not None else False
        )
        if defer is not False:
            assert spec_col is not None
            if spec_col.spec_col is not None:
                # The scalar core re-keys the deferred fill to the
                # grandparent prediction at verify time; model the
                # common flat case only.
                raise LaneDivergence("nested speculative fill deferral")
        self._apply_fill_events(issue)
        latency, l1_hit, paddr = self._walk(
            pid, addr, True, False if invisi else _lanes_not(defer),
        )
        value = self._value_at(paddr)
        col.spec_col, col.spec_lanes = spec_col, spec_lanes
        done = issue + latency
        col.C = done

        # L1 misses engage the Value Prediction System; hits only under
        # footnote 2's non-load-based VPS (``predict_on_hit``), where
        # mispredicted hits still squash.
        keyed, asks = self._vps_lanes(True, l1_hit)
        key = AccessKey(pc=pc, addr=addr, pid=pid)
        prediction = self._consult_predictor(
            key, issue, asks
        ) if asks is not False else None
        early_vr = issue + config.predict_latency
        if l1_hit is True:
            early_vr = np.minimum(early_vr, done)
        elif l1_hit is not False:
            early_vr = np.where(l1_hit, np.minimum(early_vr, done), early_vr)
        col.result = value
        squash: object = False
        if prediction is None:
            col.VR = done
        else:
            # Verification, per lane: the predicted value, the loaded
            # value, or both may be lane vectors.  Lanes that predicted
            # right saw the value early; the others squash.
            self._check_trained_lanes(prediction, asks, keyed)
            col.pred_load = asks
            wrong = prediction.value != value  # type: ignore[attr-defined]
            squash = _lanes_and(asks, (
                _lanes(wrong) if isinstance(wrong, np.ndarray)
                else bool(wrong)
            ))
            right = _lanes_and(asks, _lanes_not(squash))
            col.VR = (
                early_vr if right is True else done if right is False
                else np.where(right, early_vr, done)  # type: ignore[arg-type]
            )
        if keyed is not False:
            self._enqueue_train(
                key, value, prediction, done,
                mask=None if keyed is True else keyed,  # type: ignore[arg-type]
            )
        col.R = retire_cycle(col.C)
        if invisi:
            # InvisiSpec: every load re-fills at its retire.
            self._schedule_fill(col.R, paddr, pid, addr)
        elif defer is not False:
            # D defense: the fill lands when the speculation source
            # verifies (correct — a mispredicting source would have
            # squashed this load into a transient).
            assert spec_col is not None and spec_col.C is not None
            self._schedule_fill(spec_col.C, paddr, pid, addr, defer)
        if squash is False:
            return False, None, None
        return squash, prediction.value, early_vr  # type: ignore[attr-defined]

    def _vps_lanes(
        self, lanes: object, l1_hit: object,
    ) -> Tuple[object, object]:
        """Of the accessing ``lanes``: those whose load the VPS observes
        (it trains at completion) and those that consult it."""
        config = self.config
        miss = _lanes_and(lanes, _lanes_not(l1_hit))
        keyed = lanes if config.train_on_hit or config.predict_on_hit else miss
        asks: object = False
        if config.value_prediction:
            asks = lanes if config.predict_on_hit else miss
        return keyed, asks

    @staticmethod
    def _check_trained_lanes(
        prediction: object, asks: object, keyed: object,
    ) -> None:
        """A prediction trains as one with every lane it trains in."""
        if prediction is not None and not _same_lanes(asks, keyed):
            raise LaneDivergence(
                "a load predicted in only some of the lanes it trains in"
            )

    # -- guards ---------------------------------------------------------
    def _check_oversubscription(
        self, issues: Sequence[np.ndarray], cap: int, what: str
    ) -> None:
        """Diverge if >cap ops would issue in one cycle in any lane.

        The schedule recurrences assume the unconstrained schedule
        respects every per-cycle cap; ``issues`` holds single rows and
        blocks of rows, one row per op.  Sort each class's issue cycles
        per lane and check no ``cap+1`` of them coincide.
        """
        if not issues:
            return
        stacked = np.vstack(issues)
        if len(stacked) <= cap:
            return
        stacked.sort(axis=0)
        if bool(np.any(stacked[cap:] <= stacked[:-cap])):
            raise LaneDivergence(f"{what} oversubscribed")
