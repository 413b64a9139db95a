"""Lane values: what one lockstep pass computes for many trials at once.

A lane is one trial.  A quantity every lane agrees on stays a plain
Python int; one they disagree on is a numpy ``[lanes]`` vector (uint64
for register values and addresses, int64 for cycles).  A *lane set* is
True (every lane), False (none) or a bool lane mask with both values in
it, so the common all-or-nothing cases never touch numpy.

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

import random
from dataclasses import replace
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.isa.instructions import AluOp
from repro.pipeline.core import EA_MASK, _alu_compute
from repro.vp.base import Prediction

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.lockstep import LockstepMachine

_VALUE_MASK = (1 << 64) - 1

#: Padding below every cycle, for the residue-class solve's last rows.
_INT64_MIN = np.iinfo(np.int64).min


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


#: The ALU ops as numpy ufuncs (shift counts are masked to 6 bits).
_ALU_UFUNCS = {
    AluOp.ADD: np.add, AluOp.SUB: np.subtract, AluOp.XOR: np.bitwise_xor,
    AluOp.AND: np.bitwise_and, AluOp.OR: np.bitwise_or,
    AluOp.MUL: np.multiply, AluOp.SHL: np.left_shift,
    AluOp.SHR: np.right_shift,
}


def _alu_vec(alu_op: AluOp, lhs: object, rhs: object) -> object:
    """Vector-aware ALU evaluation matching ``_alu_compute`` per lane."""
    ufunc = _ALU_UFUNCS.get(alu_op)
    if ufunc is None:  # pragma: no cover - exhaustive over AluOp
        raise LaneDivergence(f"unhandled ALU op {alu_op}")
    left = np.asarray(lhs).astype(np.uint64)
    right = np.asarray(rhs).astype(np.uint64)
    if alu_op in (AluOp.SHL, AluOp.SHR):
        right = right & np.uint64(63)
    with np.errstate(over="ignore"):
        return ufunc(left, right).astype(np.uint64)


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


class _LaneMeasurement(Exception):
    """Carries the per-lane measurement vector out of variant code."""

    def __init__(self, values: np.ndarray) -> None:
        super().__init__("lane measurement")
        self.values = values


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

    __int__ = __float__  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"_LaneInt({self.values!r})"


class LaneRunResult:
    """Per-lane analogue of :class:`repro.pipeline.trace.RunResult`."""

    __slots__ = (
        "program_name", "pid", "start_cycles", "end_cycles",
        "retired", "rdtsc_values",
    )

    def __init__(
        self, program_name: str, pid: int, start_cycles: np.ndarray,
        end_cycles: np.ndarray, retired: int,
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
