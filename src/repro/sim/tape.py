"""Trial-pass tapes: record one lockstep pass, replay it for new seeds.

The lane-pool scheduler (:mod:`repro.sim.schedule`) keeps the 128-lane
lockstep vector busy across cell and look boundaries.  Its key cost
observation: a :class:`~repro.sim.lockstep.LockstepMachine` pass is a
*Python* interpreter over the dynamic uop trace whose wall-clock is
dominated by per-column overhead, nearly independent of the lane count.
Every later group-sequential look of a cell — and every compatible cell
sharing the same program shape — re-interprets the identical trace,
differing **only** in the per-lane trial seeds.

A :class:`Tape` captures what actually depends on those seeds.  During
a recording pass the machine wraps exactly three kinds of per-lane
values in a :class:`TV` (traced vector):

* L2-jitter and DRAM-latency draws (:class:`~random.Random` streams
  seeded per lane) — recorded as *leaves*, re-drawn at replay from
  fresh streams in the recorded occurrence order;
* lane-default backing values (``splitmix64(paddr ^ seed_k)``) —
  recorded as leaves parameterized by ``paddr``;
* everything arithmetically derived from those, via ``TV``'s numpy
  operator interception — recorded as a straight-line SSA op list.

All other vectors in a vectorizable pass are provably lane-uniform
(the cycle clock starts at zeros, structural state is shared, and the
engine collapses any value that feeds structure through
``_uniform_int``), so they fold into scalar constants and the tape is
**lane-width agnostic**: a tape recorded at 24 lanes replays at 1, 7
or 128.

Replay soundness does not rest on the recording being representative.
Every lane-dependent branch the engine took flows through a *guard*:
``bool(np.all(...))`` / ``bool(np.any(...))`` sites call ``TV.all`` /
``TV.any``, which append a guard node carrying the recorded outcome,
and uniformity collapses append the collapsed constant.  Replay
re-evaluates every guard against the new seeds' values and raises
:class:`ReplayDivergence` on the first mismatch; the caller then falls
back to a fresh interpretive pass (which may itself diverge to the
scalar backend).  Correctness therefore never depends on a replay
succeeding — a tape can only make the right answer cheaper, never a
wrong answer possible.

Recording aborts loudly (:class:`TapeInvalid`) on anything the tape
cannot express: a predictor lane split, a traced vector escaping into
an untraced numpy path (``TV.__array__`` refuses to demote), or a
non-uniform constant.  The aborted pass's machine state is discarded
and the pass re-runs untaped.
"""

from __future__ import annotations

import random
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ReplayDivergence",
    "ReplayResult",
    "Tape",
    "TapeInvalid",
    "TapeRecorder",
    "TV",
    "replay",
]


class TapeInvalid(Exception):
    """The pass left the tape's envelope while recording.

    Internal control flow of the pool scheduler: the recording attempt
    is abandoned, the key is marked non-recordable, and the pass
    re-runs untaped.  Never surfaced to callers.
    """


class ReplayDivergence(Exception):
    """A replayed guard evaluated differently under the new seeds.

    The recorded control path is not valid for these lanes; the caller
    falls back to a fresh interpretive pass.
    """


#: Ufunc names a traced vector may record.  Everything the lockstep
#: engine's cycle/value arithmetic can reach; an unlisted ufunc aborts
#: recording rather than guessing.
_UFUNCS = frozenset({
    "add", "subtract", "multiply", "maximum", "minimum",
    "bitwise_and", "bitwise_or", "bitwise_xor", "invert",
    "left_shift", "right_shift",
    "less", "less_equal", "greater", "greater_equal",
    "equal", "not_equal", "logical_and", "logical_or", "logical_not",
})


def _const_ref(value: Any) -> Tuple[str, Any, Optional[str]]:
    """A constant operand as a ``("c", scalar, dtype)`` reference.

    Vector constants must be lane-uniform — anything per-lane reaches
    a tape only through leaves — so they fold to a scalar, making the
    tape independent of the recorded lane count.  The dtype is kept so
    replay reproduces numpy's exact promotion behaviour.
    """
    if isinstance(value, np.ndarray):
        if value.ndim == 0:
            return ("c", value.item(), value.dtype.name)
        first = value.flat[0]
        if not bool(np.all(value == first)):
            raise TapeInvalid("non-uniform constant vector in a tape")
        return ("c", first.item(), value.dtype.name)
    if isinstance(value, np.generic):
        return ("c", value.item(), value.dtype.name)
    if isinstance(value, (bool, int, float)):
        return ("c", value, None)
    raise TapeInvalid(f"untapeable operand {type(value).__name__}")


class TV:
    """A traced vector: a concrete per-lane array plus its tape node.

    Not an ``ndarray`` subclass — silent demotion through
    ``np.asarray`` is exactly the unsoundness this wrapper exists to
    prevent, so ``__array__`` raises instead.  The ``shadow`` array is
    the value the interpretive pass would have computed; the recording
    pass's results are read from shadows, so recording can never
    change an answer.
    """

    __slots__ = ("shadow", "tape", "idx")

    def __init__(self, shadow: np.ndarray, tape: "TapeRecorder", idx: int):
        self.shadow = shadow
        self.tape = tape
        self.idx = idx

    # -- loud-failure discipline ---------------------------------------
    def __array__(self, dtype: object = None, copy: object = None):
        raise TapeInvalid(
            "a traced vector reached an untraced numpy path"
        )

    def __bool__(self) -> bool:
        raise TapeInvalid("a traced vector collapsed to one bool")

    def __len__(self) -> int:
        return len(self.shadow)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"TV(n{self.idx}, {self.shadow!r})"

    # -- recording core -------------------------------------------------
    def _ref(self) -> Tuple[str, int]:
        return ("n", self.idx)

    def __array_ufunc__(
        self, ufunc: Any, method: str, *inputs: Any, **kwargs: Any
    ) -> "TV":
        if method != "__call__" or kwargs.get("out") is not None:
            raise TapeInvalid(f"untapeable ufunc use {ufunc.__name__}")
        name = ufunc.__name__
        if name not in _UFUNCS:
            raise TapeInvalid(f"untapeable ufunc {name}")
        tape = self.tape
        refs = []
        shadows = []
        for value in inputs:
            if isinstance(value, TV):
                if value.tape is not tape:
                    raise TapeInvalid("traced vectors from two tapes met")
                refs.append(value._ref())
                shadows.append(value.shadow)
            else:
                refs.append(_const_ref(value))
                shadows.append(value)
        with np.errstate(over="ignore"):
            shadow = ufunc(*shadows)
        return tape._emit(("u", name, tuple(refs)), shadow)

    # -- Python operator protocol (plain int/float on either side) -----
    def _binop(self, name: str, other: Any, swapped: bool) -> "TV":
        ufunc = getattr(np, name)
        if swapped:
            return self.__array_ufunc__(ufunc, "__call__", other, self)
        return self.__array_ufunc__(ufunc, "__call__", self, other)

    def __add__(self, other: Any) -> "TV":
        return self._binop("add", other, False)

    def __radd__(self, other: Any) -> "TV":
        return self._binop("add", other, True)

    def __sub__(self, other: Any) -> "TV":
        return self._binop("subtract", other, False)

    def __rsub__(self, other: Any) -> "TV":
        return self._binop("subtract", other, True)

    def __mul__(self, other: Any) -> "TV":
        return self._binop("multiply", other, False)

    def __rmul__(self, other: Any) -> "TV":
        return self._binop("multiply", other, True)

    def __and__(self, other: Any) -> "TV":
        return self._binop("bitwise_and", other, False)

    def __rand__(self, other: Any) -> "TV":
        return self._binop("bitwise_and", other, True)

    def __or__(self, other: Any) -> "TV":
        return self._binop("bitwise_or", other, False)

    def __ror__(self, other: Any) -> "TV":
        return self._binop("bitwise_or", other, True)

    def __xor__(self, other: Any) -> "TV":
        return self._binop("bitwise_xor", other, False)

    def __rxor__(self, other: Any) -> "TV":
        return self._binop("bitwise_xor", other, True)

    def __lshift__(self, other: Any) -> "TV":
        return self._binop("left_shift", other, False)

    def __rshift__(self, other: Any) -> "TV":
        return self._binop("right_shift", other, False)

    def __invert__(self) -> "TV":
        return self.__array_ufunc__(np.invert, "__call__", self)

    def __lt__(self, other: Any) -> "TV":
        return self._binop("less", other, False)

    def __le__(self, other: Any) -> "TV":
        return self._binop("less_equal", other, False)

    def __gt__(self, other: Any) -> "TV":
        return self._binop("greater", other, False)

    def __ge__(self, other: Any) -> "TV":
        return self._binop("greater_equal", other, False)

    def __eq__(self, other: Any) -> "TV":  # type: ignore[override]
        return self._binop("equal", other, False)

    def __ne__(self, other: Any) -> "TV":  # type: ignore[override]
        return self._binop("not_equal", other, False)

    __hash__ = None  # type: ignore[assignment]

    # -- ndarray method surface the engine touches ----------------------
    def astype(self, dtype: Any) -> "TV":
        shadow = self.shadow.astype(dtype)
        return self.tape._emit(
            ("astype", np.dtype(dtype).name, self._ref()), shadow
        )

    def copy(self) -> "TV":
        # Tape values are SSA (never mutated in place), so a defensive
        # copy shares the node and only copies the shadow.
        return TV(self.shadow.copy(), self.tape, self.idx)

    def __getitem__(self, index: Any) -> Any:
        # Concrete read-out (the backend's per-lane TrialResult
        # construction); pure shadow access, nothing to record.
        return self.shadow[index]

    def all(self, axis: Any = None, out: Any = None, **kwargs: Any) -> bool:
        """``np.all`` lands here: collapse to a bool, guarded.

        Every lane-dependent branch the engine takes goes through
        ``bool(np.all(...))`` / ``bool(np.any(...))``, so these two
        methods give complete branch coverage with no engine changes.
        """
        if axis is not None or out is not None:
            raise TapeInvalid("untapeable reduction arguments")
        outcome = bool(np.all(self.shadow))
        self.tape._guard(("g_bool", "all", self._ref(), outcome))
        return outcome

    def any(self, axis: Any = None, out: Any = None, **kwargs: Any) -> bool:
        if axis is not None or out is not None:
            raise TapeInvalid("untapeable reduction arguments")
        outcome = bool(np.any(self.shadow))
        self.tape._guard(("g_bool", "any", self._ref(), outcome))
        return outcome

    def sum(self, axis: Any = None, **kwargs: Any) -> int:
        """``np.sum`` lands here: a per-run cycle total (an *output*).

        The engine's only traced reduction is the simulated-cycle
        accumulation at the end of ``run_program``; record it as an
        output node so replay reports lane-correct cycle totals.
        """
        if axis is not None:
            raise TapeInvalid("untapeable reduction arguments")
        total = int(np.sum(self.shadow))
        self.tape._sum_output(self._ref())
        return total


class TapeRecorder:
    """Accumulates one pass's nodes; finalized into a :class:`Tape`."""

    def __init__(self, lanes: int) -> None:
        if lanes < 2:
            # A 1-lane recording cannot distinguish lane-uniform from
            # lane-dependent (everything is trivially uniform), so its
            # constants would be unsound to fold.
            raise TapeInvalid("recording needs at least 2 lanes")
        self.lanes = lanes
        self.nodes: List[Tuple[Any, ...]] = []
        #: ``(retired_columns, squashes)`` per completed ``run_program``
        #: — per-lane-uniform counts, scaled by the replay lane count.
        self.runs: List[Tuple[int, int]] = []
        self._sum_refs: List[Tuple[str, int]] = []

    # -- engine-facing hooks --------------------------------------------
    def leaf_l2(self, shadow: np.ndarray, jitter: int) -> TV:
        return self._emit(("leaf_l2", jitter), shadow)

    def leaf_dram(
        self, shadow: np.ndarray,
        base: int, jitter: int, tail_extra: int, tail_probability: float,
    ) -> TV:
        return self._emit(
            ("leaf_dram", base, jitter, tail_extra, tail_probability),
            shadow,
        )

    def leaf_default(self, shadow: np.ndarray, paddr: int) -> TV:
        return self._emit(("leaf_default", paddr), shadow)

    def note_run(self, retired_columns: int, squashes: int) -> None:
        self.runs.append((retired_columns, squashes))

    def guard_uniform(self, tv: TV, value: int) -> None:
        """Pin a uniformity collapse: replay must see the same value."""
        self._guard(("g_uniform", tv._ref(), value))

    def guard_oversubscription(
        self, issues: Sequence[Any], cap: int, what: str
    ) -> None:
        """Re-checkable form of the issue-width/port guard.

        The recorded pass verified the caps hold; replay re-sorts the
        (re-evaluated) issue cycles and re-verifies, because jitter
        under new seeds can make a cap bind that did not bind before.
        """
        refs = tuple(
            value._ref() if isinstance(value, TV) else _const_ref(value)
            for value in issues
        )
        self._guard(("g_oversub", refs, cap, what))

    # -- internals -------------------------------------------------------
    def _emit(self, node: Tuple[Any, ...], shadow: Any) -> TV:
        if not isinstance(shadow, np.ndarray) or shadow.ndim != 1:
            raise TapeInvalid("traced value is not a lane vector")
        self.nodes.append(node)
        return TV(shadow, self, len(self.nodes) - 1)

    def _guard(self, node: Tuple[Any, ...]) -> None:
        self.nodes.append(node)

    def _sum_output(self, ref: Tuple[str, int]) -> None:
        self.nodes.append(("sum", ref))
        self._sum_refs.append(ref)

    def finalize(
        self, measurement: Any, final_cycle: Any
    ) -> "Tape":
        """Seal the recording once the pass produced its measurement."""
        out_measure = (
            measurement._ref() if isinstance(measurement, TV)
            else _const_ref(measurement)
        )
        out_cycle = (
            final_cycle._ref() if isinstance(final_cycle, TV)
            else _const_ref(final_cycle)
        )
        return Tape(
            nodes=tuple(self.nodes),
            runs=tuple(self.runs),
            out_measure=out_measure,
            out_cycle=out_cycle,
            recorded_lanes=self.lanes,
        )


class Tape:
    """A sealed, replayable recording of one trial pass.

    Replays through a *compiled* form: :func:`_compile` turns the node
    list into one straight-line Python function (built lazily on first
    replay, cached on the tape).  A naive node-walking interpreter
    spends most of its time on per-node dispatch and operand
    resolution — measured barely 1.3x faster than re-interpreting the
    trace — while the compiled form is a flat sequence of pre-bound
    ufunc calls, which is what makes replay decisively cheaper than
    interpretation.
    """

    __slots__ = (
        "nodes", "runs", "out_measure", "out_cycle", "recorded_lanes",
        "_compiled",
    )

    def __init__(
        self,
        nodes: Tuple[Tuple[Any, ...], ...],
        runs: Tuple[Tuple[int, int], ...],
        out_measure: Tuple[str, ...],
        out_cycle: Tuple[str, ...],
        recorded_lanes: int,
    ) -> None:
        self.nodes = nodes
        self.runs = runs
        self.out_measure = out_measure
        self.out_cycle = out_cycle
        self.recorded_lanes = recorded_lanes
        self._compiled: Optional["_CompiledTape"] = None

    def compiled(self) -> "_CompiledTape":
        """The compiled form, building it on first use.

        Callers that just recorded a tape compile here eagerly, so
        the one-time codegen cost lands in the recording pass (already
        the slow path) instead of inflating the first replay.
        """
        if self._compiled is None:
            self._compiled = _compile(self)
        return self._compiled


class ReplayResult:
    """Per-lane outputs of a successful replay."""

    __slots__ = (
        "measurement", "final_cycle", "simulated_cycles",
        "total_retired", "total_squashes",
    )

    def __init__(
        self,
        measurement: np.ndarray,
        final_cycle: np.ndarray,
        simulated_cycles: int,
        total_retired: int,
        total_squashes: int,
    ) -> None:
        self.measurement = measurement
        self.final_cycle = final_cycle
        self.simulated_cycles = simulated_cycles
        self.total_retired = total_retired
        self.total_squashes = total_squashes


class _CompiledTape:
    """A tape lowered to one straight-line Python function.

    ``fn(lanes, DM, DD, default_seeds, C, DT)`` evaluates every *live*
    node (dead arithmetic is pruned by a backward liveness pass; leaf
    *draws* are never dead because they advance the per-lane RNG
    streams, only their stores are skipped) and returns
    ``(measurement, final_cycle, simulated_cycles)``.
    """

    __slots__ = ("fn", "mem_jitters", "dram_params", "consts", "dtypes")

    def __init__(
        self,
        fn: Any,
        mem_jitters: Tuple[int, ...],
        dram_params: Tuple[Tuple[int, int, int, float], ...],
        consts: Tuple[Any, ...],
        dtypes: Tuple[Any, ...],
    ) -> None:
        self.fn = fn
        self.mem_jitters = mem_jitters
        self.dram_params = dram_params
        self.consts = consts
        self.dtypes = dtypes


def _mem_draws(
    lane_seeds: Sequence[int], jitters: Sequence[int]
) -> List[np.ndarray]:
    """Per-leaf L2-jitter vectors, in recorded stream order per lane."""
    cols = [[0] * len(lane_seeds) for _ in jitters]
    for lane, seed in enumerate(lane_seeds):
        draw = random.Random(seed ^ 0xC0FFEE).randint
        for k, jitter in enumerate(jitters):
            cols[k][lane] = draw(0, jitter)
    return [np.asarray(col, dtype=np.int64) for col in cols]


def _dram_draws(
    lane_seeds: Sequence[int],
    params: Sequence[Tuple[int, int, int, float]],
) -> List[np.ndarray]:
    """Per-leaf DRAM-latency vectors (``DramModel.access_latency``)."""
    cols = [[0] * len(lane_seeds) for _ in params]
    for lane, seed in enumerate(lane_seeds):
        rng = random.Random(seed ^ 0x33)
        draw = rng.randint
        uniform = rng.random
        for k, (base, jitter, tail_extra, tail_probability) in (
            enumerate(params)
        ):
            latency = base
            if jitter:
                latency += draw(0, jitter)
            if tail_extra and uniform() < tail_probability:
                latency += tail_extra
            cols[k][lane] = latency
    return [np.asarray(col, dtype=np.int64) for col in cols]


def _live_nodes(tape: Tape) -> set:
    """Indices of value nodes something downstream actually reads."""
    used: set = set()

    def mark(ref: Tuple[Any, ...]) -> None:
        if ref[0] == "n":
            used.add(ref[1])

    mark(tape.out_measure)
    mark(tape.out_cycle)
    for node in tape.nodes:
        kind = node[0]
        if kind == "g_bool":
            mark(node[2])
        elif kind == "g_uniform":
            mark(node[1])
        elif kind == "g_oversub":
            for ref in node[1]:
                mark(ref)
        elif kind == "sum":
            mark(node[1])
    for idx in range(len(tape.nodes) - 1, -1, -1):
        if idx not in used:
            continue
        node = tape.nodes[idx]
        if node[0] == "u":
            for ref in node[2]:
                mark(ref)
        elif node[0] == "astype":
            mark(node[2])
    return used


def _compile(tape: Tape) -> _CompiledTape:
    """Lower a tape to source, ``exec`` it, return the bundle."""
    from repro.sim.lockstep import _splitmix64_vec

    consts: List[Any] = []
    const_index: dict = {}
    dtypes: List[Any] = []
    dtype_index: dict = {}
    mem_jitters: List[int] = []
    dram_params: List[Tuple[int, int, int, float]] = []
    live = _live_nodes(tape)

    def cref(scalar: Any, dtype: Optional[str]) -> str:
        key = (scalar, dtype)
        if key not in const_index:
            const_index[key] = len(consts)
            consts.append(
                scalar if dtype is None else np.dtype(dtype).type(scalar)
            )
        return f"C[{const_index[key]}]"

    def rexpr(ref: Tuple[Any, ...]) -> str:
        if ref[0] == "n":
            return f"v{ref[1]}"
        return cref(ref[1], ref[2])

    def dref(name: str) -> str:
        if name not in dtype_index:
            dtype_index[name] = len(dtypes)
            dtypes.append(np.dtype(name))
        return f"DT[{dtype_index[name]}]"

    # Pre-bound ufuncs: one global per distinct op, no attribute walks
    # in the hot path.
    bound: dict = {
        "np": np,
        "RD": ReplayDivergence,
        "_smx": _splitmix64_vec,
        "_sort": np.sort,
        "_stack": np.stack,
        "_full": np.full,
        "_f64": np.float64,
    }
    lines: List[str] = [
        "def _run(lanes, DM, DD, default_seeds, C, DT):",
        "  _S = 0",
        "  with np.errstate(over='ignore'):",
    ]
    emit = lines.append
    for idx, node in enumerate(tape.nodes):
        kind = node[0]
        if kind == "u":
            if idx not in live:
                continue
            _, name, refs = node
            uname = f"_u_{name}"
            bound[uname] = getattr(np, name)
            args = ", ".join(rexpr(ref) for ref in refs)
            emit(f"    v{idx} = {uname}({args})")
        elif kind == "leaf_l2":
            slot = len(mem_jitters)
            mem_jitters.append(node[1])
            if idx in live:
                emit(f"    v{idx} = DM[{slot}]")
        elif kind == "leaf_dram":
            slot = len(dram_params)
            dram_params.append(node[1:])
            if idx in live:
                emit(f"    v{idx} = DD[{slot}]")
        elif kind == "leaf_default":
            if idx not in live:
                continue
            paddr = cref(node[1], "uint64")
            emit(f"    v{idx} = _smx({paddr} ^ default_seeds)")
        elif kind == "astype":
            if idx not in live:
                continue
            _, dtype, ref = node
            emit(f"    v{idx} = {rexpr(ref)}.astype({dref(dtype)})")
        elif kind == "g_bool":
            _, which, ref, expected = node
            test = f"{rexpr(ref)}.{which}()"
            if expected:
                test = f"not {test}"
            emit(f"    if {test}:")
            emit(f"      raise RD('{which}-guard flipped')")
        elif kind == "g_uniform":
            _, ref, expected = node
            expr = rexpr(ref)
            emit(f"    _t = {expr}[0]")
            emit(
                f"    if ({expr} != _t).any() or _t != {expected!r}:"
            )
            emit("      raise RD('uniform collapse broke')")
        elif kind == "g_oversub":
            _, refs, cap, what = node
            if len(refs) <= cap:
                continue
            stack_args = ", ".join(
                rexpr(ref) if ref[0] == "n"
                else f"_full(lanes, {rexpr(ref)})"
                for ref in refs
            )
            emit(f"    _st = _sort(_stack([{stack_args}]), 0)")
            emit(f"    if (_st[{cap}:] <= _st[:-{cap}]).any():")
            emit(f"      raise RD('{what} oversubscribed')")
        elif kind == "sum":
            emit(f"    _S += int({rexpr(node[1])}.sum())")
        else:  # pragma: no cover - exhaustive over node kinds
            raise ReplayDivergence(f"unknown tape node {kind!r}")
    if tape.out_measure[0] == "n":
        emit(f"    _meas = v{tape.out_measure[1]}.astype(_f64)")
    else:
        emit(
            f"    _meas = _full(lanes, {rexpr(tape.out_measure)}, _f64)"
        )
    if tape.out_cycle[0] == "n":
        emit(f"    _cyc = v{tape.out_cycle[1]}")
    else:
        emit(f"    _cyc = _full(lanes, {rexpr(tape.out_cycle)})")
    emit("  return _meas, _cyc, _S")
    namespace: dict = {}
    exec(  # noqa: S102 - source is generated from our own node list
        compile("\n".join(lines), "<tape>", "exec"), bound, namespace
    )
    return _CompiledTape(
        fn=namespace["_run"],
        mem_jitters=tuple(mem_jitters),
        dram_params=tuple(dram_params),
        consts=tuple(consts),
        dtypes=tuple(dtypes),
    )


def replay(
    tape: Tape,
    lane_seeds: Sequence[int],
    default_seeds: np.ndarray,
) -> ReplayResult:
    """Evaluate a tape for new per-lane seeds.

    ``default_seeds`` is the machine's lane-default backing-value
    vector.  Raises :class:`ReplayDivergence` on the first guard
    mismatch.
    """
    compiled = tape.compiled()
    lanes = len(lane_seeds)
    draws_mem = (
        _mem_draws(lane_seeds, compiled.mem_jitters)
        if compiled.mem_jitters else ()
    )
    draws_dram = (
        _dram_draws(lane_seeds, compiled.dram_params)
        if compiled.dram_params else ()
    )
    measurement, final_cycle, simulated_cycles = compiled.fn(
        lanes, draws_mem, draws_dram, default_seeds,
        compiled.consts, compiled.dtypes,
    )
    if not isinstance(final_cycle, np.ndarray):  # pragma: no cover
        final_cycle = np.full(lanes, final_cycle)
    return ReplayResult(
        measurement=measurement,
        final_cycle=final_cycle,
        simulated_cycles=simulated_cycles,
        total_retired=sum(run[0] for run in tape.runs) * lanes,
        total_squashes=sum(run[1] for run in tape.runs) * lanes,
    )
