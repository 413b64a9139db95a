"""The lockstep pass: one program's dynamic trace, in every lane at once.

Instead of stepping cycles, a :class:`_Pass` makes a single forward
pass over the trace in dispatch order and computes each column's
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
* dependent ALU runs are one block of rows (:mod:`repro.sim._solve`).

The recurrences assume the *unconstrained* schedule never oversubscribes
the issue width or the ALU/MUL ports; a post-hoc sorted-issue-cycle
check verifies that per lane and raises :class:`LaneDivergence` when
it would bind (greedy-with-caps then differs from unconstrained, so the
chunk is replayed on the scalar backend — never silently wrong).

**Squash windows execute transiently, in the lanes that squash.**  A
mispredicted load's younger window (up to the next FENCE) runs through
the main pass's recurrences, register view, memory access step and
port chain, forked at the trigger: its register view is an overlay over
the rename map seeded with the predicted value, which the main pass
never sees.  An op is "issued" only when its issue cycle precedes the
squash cycle in *every* lane of the window (a straddle diverges).
Lanes outside the window never count toward the issue-width and port
guards.  Transient loads walk the caches in the window's lanes, at each
lane's own address — the persistent channel's footprint — and enqueue
*masked* trainings (a lane trains only where the load completed before
the squash).  A transient load may itself be predicted when its next
trace entry is a FENCE: no younger op can read that value, so it is
only a training.  A transient op whose issue never happens blocks all
younger transient memory ops, exactly like the scalar issue stage's
``memory_blocked``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.isa.instructions import Opcode
from repro.sim._lanes import (
    _INT64_MIN, _VALUE_MASK, LaneDivergence, LaneRunResult, _effective_address,
    _LaneInt, _lanes, _lanes_and, _lanes_not, _lanes_or, _same_lanes,
    _uniform_int,
)
from repro.sim._solve import _RUN_PLANS, _alu_runs, _issue_rows, _Run, _width_solve
from repro.vp.base import AccessKey

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.lockstep import LockstepMachine

#: Issue cycle that blocks the memory ports behind a transient op that
#: never issues before the squash: far beyond any real schedule, so
#: anything chained after it classifies as "not issued" in every lane.
_FAR = 1 << 62


class _Col:
    """Rename-visible state of one dynamic uop column across all lanes.

    Dispatch and retire rows live in the pass's ``D``/``R`` matrices;
    a column object exists only for what a later consumer reads.  A
    squash window's transient column has only ``VR`` (None when it never
    issued before the squash), ``result`` and ``taint``.
    """

    __slots__ = (
        "VR", "C", "R", "result", "seq", "spec_col", "spec_lanes",
        "pred_load", "taint",
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
        #: In a squash window: the lanes where the value is speculative.
        self.taint: object = False


#: A speculation source and the lane set where it is live.
_Live = Tuple[Optional[_Col], object]


def _transient(
    vr: Optional[np.ndarray] = None, value: object = None, taint: object = False,
) -> _Col:
    """A squash window's register write; by default one never issued."""
    col = _Col()
    col.VR, col.result, col.taint = vr, value, taint
    return col


def _unverified(load_col: _Col, issue: np.ndarray) -> object:
    """The lanes where a predicted load is unverified at ``issue``: it
    verifies at its completion, which runs before issue in a cycle."""
    return _lanes(issue < load_col.C)


class _Regs(Dict[int, _Col]):
    """A register view: each register's producing column.

    The main pass's view is the rename map.  A squash window reads an
    overlay over it — a copy its transient writes go to, seeded with the
    predicted value — that the main pass never sees: the post-squash
    refetch re-executes the same trace entries architecturally.
    """

    def ready(self, base: np.ndarray, regs: Tuple[int, ...]) -> Optional[np.ndarray]:
        """``base`` raised to each source's value-ready cycle; None when
        a source's transient producer never issued."""
        ready = base
        for reg in regs:
            producer = self.get(reg)
            if producer is not None:
                if producer.VR is None:
                    return None
                ready = np.maximum(ready, producer.VR)
        return ready

    def value(self, reg: int) -> object:
        producer = self.get(reg)
        if producer is None:
            return 0
        if producer.result is None:
            raise LaneDivergence("consumer scheduled before producer")
        return producer.result

    def sources(self, regs: Tuple[int, ...], issue: np.ndarray) -> List[_Live]:
        """The speculation sources behind ``regs`` live at ``issue``.

        A predicted load is one until it verifies, and a value carries
        its producer's along.  A transient value is live in its taint
        lanes, behind the squashing trigger (None).
        """
        live: List[_Live] = []
        for reg in regs:
            producer = self.get(reg)
            if producer is None:
                continue
            if producer.taint is not False:
                live.append((None, producer.taint))
            if producer.pred_load is not False:
                lanes = _lanes_and(producer.pred_load, _unverified(producer, issue))
                if lanes is not False:
                    live.append((producer, lanes))
            if producer.spec_col is not None:
                # Where the producer is itself a live prediction, the
                # younger producer wins below anyway.
                source = producer.spec_col
                lanes = _lanes_and(producer.spec_lanes, _unverified(source, issue))
                if lanes is not False:
                    live.append((source, lanes))
        return live

    def youngest(self, regs: Tuple[int, ...], issue: np.ndarray) -> _Live:
        """The main pass's speculation source: the youngest live one
        (scalar ``_speculative_source``) and the lanes where it is one.

        A verification that straddles the issue leaves a source in
        some lanes only; an older source in the other lanes would make
        the source itself lane-varying, which diverges.
        """
        found: Dict[int, Tuple[_Col, object]] = {}
        for source, live in self.sources(regs, issue):
            assert source is not None
            prior = found.get(source.seq)
            if prior is not None:
                live = _lanes_or(prior[1], live)
            found[source.seq] = (source, live)
        if not found:
            return None, False
        order = sorted(found, reverse=True)
        best, live = found[order[0]]
        for seq in order[1:]:
            if _lanes_and(found[seq][1], _lanes_not(live)) is not False:
                raise LaneDivergence("speculation source differs across lanes")
        return best, live

    def tainted(self, regs: Tuple[int, ...], issue: np.ndarray) -> object:
        """A squash window's taint: every live source's lanes."""
        taint: object = False
        for _, live in self.sources(regs, issue):
            taint = _lanes_or(taint, live)
        return taint


class _Ports:
    """The two memory ports: memory ops issue strictly in program order,
    ``I_mem[k] >= max(I_mem[k-1], I_mem[k-2] + 1)``."""

    __slots__ = ("last", "prev")

    def __init__(
        self, last: Optional[np.ndarray] = None,
        prev: Optional[np.ndarray] = None,
    ) -> None:
        self.last, self.prev = last, prev

    def issue(self, ready: np.ndarray) -> np.ndarray:
        if self.last is not None:
            ready = np.maximum(ready, self.last)
        if self.prev is not None:
            ready = np.maximum(ready, self.prev + 1)
        return ready

    def take(self, issue: np.ndarray) -> None:
        self.prev, self.last = self.last, issue


class _Window:
    """A squash window's state, forked from the main pass at load ``n_load``.

    ``lanes`` is True when every lane squashes, else the mask of the
    lanes that do (``outside`` holds the others).  The others verified
    correct and never run the window: their rows here are placeholders
    the main pass overwrites, and ``squash`` (the trigger's completion)
    is below every cycle there.
    """

    def __init__(
        self, main: "_Pass", n_load: int, squash: np.ndarray, lanes: object,
    ) -> None:
        self.n_load = n_load
        self.lanes = lanes
        self.outside: Optional[np.ndarray] = None
        self.squash = squash
        if lanes is not True:
            self.outside = ~lanes  # type: ignore[operator]
            self.squash = np.where(lanes, squash, _INT64_MIN)  # type: ignore[arg-type]
        self.regs = _Regs(main.regs)
        self.ports = _Ports(main.ports.last, main.ports.prev)

    def every(self, pre: np.ndarray) -> np.ndarray:
        """``pre`` in every lane of the window, per row."""
        if self.outside is not None:
            pre = pre | self.outside
        return pre.all(axis=-1)

    def pre_squash(self, cycles: np.ndarray) -> bool:
        """all(< squash) -> True; all(>= squash) -> False; mixed diverges."""
        pre = cycles < self.squash
        if bool(self.every(pre)):
            return True
        if not bool(np.any(pre)):
            return False
        raise LaneDivergence("squash window edge straddles lanes")

    def first_late(self, pre: np.ndarray) -> int:
        """Index of the first row not pre-squash in every lane."""
        rows = self.every(pre)
        return len(rows) if bool(rows.all()) else int(np.argmin(rows))


def _check_oversubscription(issues: Sequence[np.ndarray], cap: int, what: str) -> None:
    """Diverge if >cap ops would issue in one cycle in any lane.

    ``issues`` holds single rows and blocks of rows, one row per op.
    Sort each class's issue cycles per lane and check no ``cap+1`` of
    them coincide.
    """
    if not issues:
        return
    stacked = np.vstack(issues)
    if len(stacked) <= cap:
        return
    stacked.sort(axis=0)
    if bool(np.any(stacked[cap:] <= stacked[:-cap])):
        raise LaneDivergence(f"{what} oversubscribed")


class _Pass:
    """One :meth:`LockstepMachine.run_program` call.

    Column ``n`` is trace entry ``n``; ``D`` and ``R`` hold every
    column's dispatch and retire rows.  A squash window writes transient
    dispatch rows ahead of the main pass, which overwrites them when it
    refetches the same entries.  The issue-cycle logs (single rows and
    blocks of rows) feed the post-hoc width and port guards.
    """

    def __init__(self, machine: "LockstepMachine", program: object) -> None:
        trace = program.dynamic_trace()  # type: ignore[attr-defined]
        self.name: str = program.name  # type: ignore[attr-defined]
        if not trace:
            raise LaneDivergence(f"program {self.name} has an empty trace")
        runs = _RUN_PLANS.get(program)
        if runs is None:
            runs = _RUN_PLANS[program] = _alu_runs(trace)
        self.machine = machine
        self.config = machine.config
        self.memory = machine.memory
        self.trace = trace
        self.runs = runs
        self.pid: int = program.pid  # type: ignore[attr-defined]
        self.start = machine.cycle
        self.D = np.empty((len(trace), machine.lanes), dtype=np.int64)
        self.R = np.empty((len(trace), machine.lanes), dtype=np.int64)
        self.regs = _Regs()
        self.ports = _Ports()
        self.stall: Optional[np.ndarray] = None
        self.fence_gate: Optional[np.ndarray] = None
        self.rdtsc_values: List[Tuple[int, _LaneInt]] = []
        self.width_issues: List[np.ndarray] = []
        self.alu_issues: List[np.ndarray] = []
        self.mul_issues: List[np.ndarray] = []
        #: Rows logged for a masked squash window so far: each gets its
        #: own negative sentinel in the lanes outside the window.
        self.off_window_rows = 0

    def run(self) -> LaneRunResult:
        """The main pass, then the end-of-run guards."""
        trace, config = self.trace, self.config
        n, length = 0, len(trace)
        while n < length:
            if trace[n].instruction.op is Opcode.ALU:
                run = self.runs[n]
                self.regs[run.dest] = self._alu_column(n, run)
                n += run.length
            else:
                self._column(n)
                n += 1
        end = self.R[-1].copy()
        # The scalar core raises SimulationError past the cycle budget;
        # stay conservatively clear of it so near-budget runs take the
        # scalar path and raise (or not) exactly as before.
        if bool(np.any(end + 1 - self.start > config.max_cycles - 2)):
            raise LaneDivergence("run approaches the cycle budget")
        _check_oversubscription(self.width_issues, config.issue_width, "issue width")
        _check_oversubscription(self.alu_issues, config.alu_ports, "ALU ports")
        _check_oversubscription(self.mul_issues, config.mul_ports, "MUL ports")
        return LaneRunResult(
            self.name, self.pid, self.start, end, length, self.rdtsc_values,
        )

    # -- rows -------------------------------------------------------------
    def dispatch_at(self, n: int) -> np.ndarray:
        """Dispatch row of column ``n``, recorded in ``D``."""
        D, config = self.D, self.config
        dispatch = D[n - 1] if n else self.start
        if n >= config.fetch_width:
            dispatch = np.maximum(dispatch, D[n - config.fetch_width] + 1)
        if self.stall is not None:
            dispatch = np.maximum(dispatch, self.stall)
        if self.fence_gate is not None:
            dispatch = np.maximum(dispatch, self.fence_gate)
        if n >= config.rob_size:
            dispatch = np.maximum(dispatch, self.R[n - config.rob_size])
        D[n] = dispatch
        return dispatch

    def retire_cycle(self, n: int, complete: np.ndarray) -> np.ndarray:
        """Retire row of main-pass column ``n``, completing at ``complete``."""
        R, width = self.R, self.config.commit_width
        retire = complete
        if n:
            retire = np.maximum(retire, R[n - 1])
        if n >= width:
            retire = np.maximum(retire, R[n - width] + 1)
        return retire

    def dispatch_rows(self, first: int, count: int) -> np.ndarray:
        """Dispatch rows of columns ``first .. first+count-1``.

        ``count <= rob_size``, so every ROB gate is an earlier row that
        is already scheduled.  D and R never decrease, so the previous
        row, stall, fence and ROB terms are one floor per row and only
        the fetch-width term needs :func:`_width_solve`.
        """
        D, rob_size = self.D, self.config.rob_size
        floor = D[first - 1] if first else self.start
        if self.stall is not None:
            floor = np.maximum(floor, self.stall)
        if self.fence_gate is not None:
            floor = np.maximum(floor, self.fence_gate)
        floors = np.empty((count, D.shape[1]), dtype=np.int64)
        floors[:] = floor
        gated = max(0, rob_size - first)
        if gated < count:
            np.maximum(
                floors[gated:],
                self.R[first + gated - rob_size:first + count - rob_size],
                out=floors[gated:],
            )
        rows = _width_solve(floors, D, first, self.config.fetch_width)
        D[first:first + count] = rows
        return rows

    def retire_rows(self, first: int, ready: np.ndarray) -> None:
        """Retire rows of a chain's columns ``first ..``.

        Completion grows along a chain, so the previous row's R is the
        whole running floor and only the commit-width term needs
        :func:`_width_solve`.
        """
        R = self.R
        floor = np.maximum(ready, R[first - 1]) if first else ready
        R[first:first + len(ready)] = _width_solve(
            floor, R, first, self.config.commit_width
        )

    def log_issues(self, issue: np.ndarray, mul: np.ndarray) -> None:
        self.width_issues.append(issue)
        if not mul.any():
            self.alu_issues.append(issue)
        elif mul.all():
            self.mul_issues.append(issue)
        else:
            self.alu_issues.append(issue[~mul])
            self.mul_issues.append(issue[mul])

    def counted(self, window: _Window, rows: np.ndarray) -> np.ndarray:
        """A squash window's issue rows as the width and port guards
        count them: lanes outside the window get negative sentinels, one
        per row, which no cycle and no other sentinel can equal."""
        if window.outside is None:
            return rows
        rows = np.atleast_2d(rows)
        marks = self.off_window_rows + 1 + np.arange(len(rows))
        self.off_window_rows += len(rows)
        return np.where(window.outside, -marks[:, None], rows)

    # -- the main pass ------------------------------------------------------
    def _alu_column(self, first: int, run: _Run) -> _Col:
        """Schedule one dependent ALU run; returns its rename column (its
        last op).  Blocks of at most ``rob_size`` ops keep every ROB gate
        behind the block."""
        config = self.config
        regs = run.head.source_registers()
        latency = run.latencies(config)
        spec: Optional[_Col] = None
        live: object = False
        ready = self.start
        for lo in range(0, run.length, config.rob_size):
            count = min(config.rob_size, run.length - lo)
            dispatch = self.dispatch_rows(first + lo, count)
            if lo:
                head = np.maximum(dispatch[0] + 1, ready[-1])
            else:
                head = self.regs.ready(dispatch[0] + 1, regs)
                if config.delay_speculative_fills:
                    spec, live = self.regs.youngest(regs, head)
            issue, ready = _issue_rows(dispatch, head, latency[lo:lo + count])
            self.retire_rows(first + lo, ready)
            self.log_issues(issue, run.mul[lo:lo + count])
        col = _Col()
        col.seq = first + run.length - 1
        col.VR = col.C = ready[-1]
        if spec is not None:
            # Op 0 found its own source; each later op inherits it
            # while it is unverified at that op's issue.  Issue grows
            # along the run in every lane, so the last op decides.
            live = _lanes_and(live, _unverified(spec, issue[-1]))
            if live is not False:
                col.spec_col, col.spec_lanes = spec, live
        col.result = run.value(self.regs.value)
        return col

    def _column(self, n: int) -> None:
        """Schedule the main pass's non-ALU column ``n``; a load that
        squashes in some lanes runs its squash window there."""
        placed = self.trace[n]
        instr = placed.instruction
        op = instr.op
        config = self.config
        col = _Col()
        col.seq = n
        dispatch = self.dispatch_at(n)
        squash: object = False
        if op in (Opcode.FENCE, Opcode.RDTSC):
            # Serialising: executes at the ROB head once drained.
            retire = np.maximum(dispatch + 1, self.retire_cycle(n, dispatch))
            col.VR = col.C = col.R = retire
            if op is Opcode.FENCE:
                self.fence_gate = retire
            else:
                col.result = retire  # RDTSC reads its retire cycle
                self.rdtsc_values.append((placed.pc, _LaneInt(retire)))
        elif op in (Opcode.NOP, Opcode.HALT, Opcode.LI):
            issue = dispatch + 1
            self.width_issues.append(issue)
            if op is Opcode.LI:
                col.result = instr.imm & _VALUE_MASK
                col.VR = col.C = issue + config.alu_latency
            else:
                col.VR = col.C = issue + 1
            col.R = self.retire_cycle(n, col.C)
        elif op is Opcode.STORE:
            raise LaneDivergence("stores are not lane-vectorized")
        elif op in (Opcode.FLUSH, Opcode.LOAD):
            regs = instr.source_registers()
            ready = self.regs.ready(dispatch + 1, regs)
            assert ready is not None
            issue = self.ports.issue(ready)
            self.width_issues.append(issue)
            self.ports.take(issue)
            base = self.regs.value(instr.src1) if instr.src1 is not None else 0
            addr = _uniform_int(
                _effective_address(base, instr.imm), "effective address"
            )
            if op is Opcode.FLUSH:
                self.memory.apply_fill_events(issue)
                self.memory.flush(self.pid, addr)
                col.VR = col.C = issue + self.memory.mem.config.flush_latency
                col.R = self.retire_cycle(n, col.C)
            else:
                spec_col, spec_lanes = (
                    self.regs.youngest(regs, issue)
                    if config.delay_speculative_fills else (None, False)
                )
                squash, predicted, trig_vr = self._load_column(
                    n, col, addr, issue, spec_col, spec_lanes,
                )
        else:  # pragma: no cover - exhaustive over Opcode
            raise LaneDivergence(f"unhandled opcode {op}")

        self.R[n] = col.R
        destination = instr.destination_register()
        if destination is not None:
            self.regs[destination] = col
        if squash is not False:
            # The scalar core dispatched (and possibly issued) younger
            # ops between the load's issue and its verification;
            # squashing discards their register results, but an issued
            # transient *memory* op has already walked the caches — the
            # persistent channel.  Execute the window transiently, then
            # refetch right after the load with the penalty applied, in
            # the lanes that squash.
            assert trig_vr is not None and col.C is not None
            self._squash_window(
                _Window(self, n, col.C, squash), predicted, trig_vr,
            )
            penalty = col.C + config.squash_penalty
            if squash is not True:
                penalty = np.where(squash, penalty, 0)  # type: ignore[arg-type]
            self.stall = (
                penalty if self.stall is None
                else np.maximum(self.stall, penalty)
            )

    # -- loads ----------------------------------------------------------------
    def _access(
        self, n: int, addr: object, issue: np.ndarray, lanes: object,
        fill: object, before: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, object, object, object, object, object]:
        """Load ``n``'s memory access in ``lanes``, in either pass.

        Applies the deferred fills due at ``issue``, walks the caches
        (filling in the ``fill`` lanes), reads the value, consults the
        predictor and enqueues the training.  L1 misses engage the VPS;
        hits only under footnote 2's ``predict_on_hit``.  A squash
        window's load trains only where it completed strictly ``before``
        the squash (ties verify the trigger first).  Returns ``(done,
        value, prediction, asks, l1_hit, paddr)``; ``asks`` consulted.
        """
        machine, config, memory = self.machine, self.config, self.memory
        memory.apply_fill_events(issue, lanes)
        latency, l1_hit, paddr = memory.walk(self.pid, addr, lanes, fill)
        done = issue + latency
        value = memory.value_at(paddr)
        miss = _lanes_and(lanes, _lanes_not(l1_hit))
        keyed = lanes if config.predict_on_hit else miss
        asks: object = False
        if config.value_prediction:
            asks = lanes if config.predict_on_hit else miss
        if keyed is False:  # then asks is False too
            return done, value, None, asks, l1_hit, paddr
        key = AccessKey(
            pc=self.trace[n].pc, addr=machine._key_address(addr, keyed),
            pid=self.pid,
        )
        prediction = machine._consult_predictor(
            key, issue, asks,
        ) if asks is not False else None
        if prediction is not None:
            if before is not None and (
                n + 1 == len(self.trace)
                or self.trace[n + 1].instruction.op is not Opcode.FENCE
            ):
                # Only a FENCE next keeps a nested prediction's value
                # from every younger op: then it is just a training, and
                # a nested squash refetches nothing the outer squash
                # does not refetch.
                raise LaneDivergence("nested speculation in a squash window")
            if not _same_lanes(asks, keyed):
                # A prediction trains as one with every lane it trains in.
                raise LaneDivergence(
                    "a load predicted in only some of the lanes it trains in"
                )
        mask = None if before is None else done < before
        if keyed is not True:
            mask = keyed if mask is None else mask & keyed  # type: ignore[assignment,operator]
        machine._enqueue_train(key, value, prediction, done, mask=mask)
        return done, value, prediction, asks, l1_hit, paddr

    def _load_column(
        self, n: int, col: _Col, addr: int, issue: np.ndarray,
        spec_col: Optional[_Col], spec_lanes: object,
    ) -> Tuple[object, object, Optional[np.ndarray]]:
        """Schedule the main pass's load column ``n``.

        Returns ``(squash, predicted value, speculative value-ready)``.
        ``squash`` is the lane set whose prediction was wrong: False,
        True (every lane) or a mask.  The last two seed the squash
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
        done, value, prediction, asks, l1_hit, paddr = self._access(
            n, addr, issue, True, False if invisi else _lanes_not(defer),
        )
        col.spec_col, col.spec_lanes = spec_col, spec_lanes
        col.C = col.VR = done
        col.result = value
        early_vr = issue + config.predict_latency
        if l1_hit is True:
            early_vr = np.minimum(early_vr, done)
        elif l1_hit is not False:
            early_vr = np.where(l1_hit, np.minimum(early_vr, done), early_vr)
        squash: object = False
        if prediction is not None:
            # Verification, per lane: the predicted value, the loaded
            # value, or both may be lane vectors.  Lanes that predicted
            # right saw the value early; the others squash.
            col.pred_load = asks
            wrong = prediction.value != value  # type: ignore[attr-defined]
            squash = _lanes_and(asks, (
                _lanes(wrong) if isinstance(wrong, np.ndarray) else bool(wrong)
            ))
            right = _lanes_and(asks, _lanes_not(squash))
            col.VR = (
                early_vr if right is True else done if right is False
                else np.where(right, early_vr, done)  # type: ignore[arg-type]
            )
        col.R = self.retire_cycle(n, done)
        if invisi:
            # InvisiSpec: every load re-fills at its retire.
            self.memory.schedule_fill(col.R, paddr, self.pid, addr)  # type: ignore[arg-type]
        elif defer is not False:
            # D defense: the fill lands when the speculation source
            # verifies (correct — a mispredicting source would have
            # squashed this load into a transient).
            assert spec_col is not None and spec_col.C is not None
            self.memory.schedule_fill(
                spec_col.C, paddr, self.pid, addr, defer,  # type: ignore[arg-type]
            )
        if squash is False:
            return False, None, None
        return squash, prediction.value, early_vr  # type: ignore[union-attr]

    # -- the squash window ------------------------------------------------------
    def _squash_window(
        self, window: _Window, predicted: object, pred_vr: np.ndarray,
    ) -> None:
        """Execute the mispredicted load's squash window transiently:
        the scalar core's pre-squash execution of the ops younger than
        the load, up to the next FENCE.  Side effects that survive the
        squash — cache/TLB walks of issued loads, and their masked
        trainings — land on the caches and the ledger."""
        trace, config = self.trace, self.config
        n = window.n_load
        trigger_dest = trace[n].instruction.destination_register()
        if trigger_dest is not None:
            window.regs[trigger_dest] = _transient(pred_vr, predicted, True)
        n, length = n + 1, len(trace)
        while n < length:
            instr = trace[n].instruction
            op = instr.op
            if op is Opcode.FENCE:
                # A FENCE blocks dispatch behind it; nothing past it
                # existed before the squash.
                break
            if op in (Opcode.STORE, Opcode.FLUSH, Opcode.RDTSC):
                raise LaneDivergence(
                    f"{op.name.lower()} in a squash window is not "
                    "lane-vectorized"
                )
            if op is Opcode.ALU:
                run = self.runs[n]
                if not self._transient_run(window, n, run):
                    break
                n += run.length
                continue
            if n - config.rob_size > window.n_load:
                # The ROB slot waits on a transient op that never
                # retires: dispatch stops here.
                break
            dispatch = self.dispatch_at(n)
            if not window.pre_squash(dispatch):
                break  # in-order dispatch: younger ops stop too
            if op is Opcode.LOAD:
                self._transient_load(window, n, dispatch)
            elif op in (Opcode.NOP, Opcode.HALT, Opcode.LI):
                issue = dispatch + 1
                issued = window.pre_squash(issue)
                if issued:
                    self.width_issues.append(self.counted(window, issue))
                dest = instr.destination_register()
                if op is Opcode.LI and dest is not None:
                    window.regs[dest] = _transient(
                        issue + config.alu_latency, instr.imm & _VALUE_MASK,
                    ) if issued else _transient()
            else:  # pragma: no cover - exhaustive
                raise LaneDivergence(f"unhandled opcode {op} in a squash window")
            n += 1

    def _transient_run(self, window: _Window, first: int, run: _Run) -> bool:
        """One dependent ALU run; False when the window ends in it.

        Row tests replay the per-op sequence: op ``k``'s dispatch test,
        then its issue test once op ``k-1`` issued.  Issue exceeds
        dispatch, so the first late issue row never follows the first
        late dispatch row; each lane is monotone along the run, so only
        that row can straddle.
        """
        # The ROB slot of a later row waits on a transient op that
        # never retires: dispatch stops there.
        count = min(run.length, window.n_load + self.config.rob_size - first + 1)
        if count <= 0:
            return False
        dispatch = self.dispatch_rows(first, count)
        d_pre = dispatch < window.squash
        late_d = window.first_late(d_pre)
        regs = run.head.source_registers()
        head = window.regs.ready(dispatch[0] + 1, regs)
        issued = 0
        taint: object = False
        if head is not None:
            latency = run.latencies(self.config)[:count]
            issue, ready = _issue_rows(dispatch, head, latency)
            i_pre = issue < window.squash
            issued = window.first_late(i_pre)
            if issued:
                self.log_issues(
                    self.counted(window, issue[:issued]), run.mul[:issued],
                )
                if self.config.delay_speculative_fills:
                    taint = window.regs.tainted(regs, issue[0])
            if issued < late_d and bool(i_pre[issued].any()):
                raise LaneDivergence("squash window edge straddles lanes")
        if late_d < count:
            if bool(d_pre[late_d].any()):
                raise LaneDivergence("squash window edge straddles lanes")
            return False
        if count < run.length:
            return False
        window.regs[run.dest] = _transient(
            ready[-1], run.value(window.regs.value), taint,
        ) if issued == count else _transient()
        return True

    def _transient_load(self, window: _Window, n: int, dispatch: np.ndarray) -> None:
        """A squash window's load ``n``, dispatched at ``dispatch``.

        The transient walk is the attack's persistent footprint: a fill
        survives the squash; deferred (D) and invisible (InvisiSpec)
        fills never land because the load never verifies nor retires.
        Lanes that walk alike share it; the others fill lane-private
        lines.
        """
        instr = self.trace[n].instruction
        dest = instr.destination_register()
        regs = instr.source_registers()
        issue = window.regs.ready(dispatch + 1, regs)
        if issue is not None:
            issue = window.ports.issue(issue)
        if issue is None or not window.pre_squash(issue):
            # A memory op stuck at the issue stage blocks every younger
            # memory op (memory_blocked).
            window.ports.take(np.full_like(dispatch, _FAR))
            if dest is not None:
                window.regs[dest] = _transient()
            return
        self.width_issues.append(self.counted(window, issue))
        window.ports.take(issue)
        base = window.regs.value(instr.src1) if instr.src1 is not None else 0
        addr = _effective_address(base, instr.imm)
        taint = (
            window.regs.tainted(regs, issue)
            if self.config.delay_speculative_fills else False
        )
        fill = False if self.config.invisispec else _lanes_and(
            window.lanes, _lanes_not(taint)
        )
        done, value = self._access(
            n, addr, issue, window.lanes, fill, window.squash,
        )[:2]
        if dest is not None:
            window.regs[dest] = _transient(done, value, taint)
