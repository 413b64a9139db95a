"""The run solve: a dependent ALU run scheduled as one block of rows.

Dependent ALU runs — consecutive ALU entries where every op after the
first is in immediate form and rewrites its predecessor's destination
(``ProgramBuilder.dependent_chain``) — are solved as one
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
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.isa.instructions import AluOp, Instruction, Opcode
from repro.pipeline.config import CoreConfig
from repro.sim._lanes import _INT64_MIN, _VALUE_MASK, _alu_any


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


def _issue_rows(
    dispatch: np.ndarray, head: np.ndarray, latency: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Issue and value-ready rows of a dependent chain.

    Op ``k`` issues at ``max(D[k] + 1, VR[k-1])`` (op 0 at ``head``) and
    is ready ``latency[k]`` later.  With ``S`` the prefix sum of the
    latencies, ``VR - S`` is a running max of ``D + 1 - S[k-1]``.
    """
    total = np.cumsum(latency)
    ready = dispatch + (1 + latency - total)[:, None]
    ready[0] = head
    np.maximum.accumulate(ready, axis=0, out=ready)
    ready += total[:, None]
    return ready - latency[:, None], ready
