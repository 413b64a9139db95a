"""Abstract interpretation of the Value Prediction System.

Given a sequence of captured programs and the architectural values the
variant wrote before running them, this pass replays every dynamic
load against an abstract VPS — the same (value, confidence) lattice as
:class:`repro.core.model._AbstractVps`, but indexed through a real
:class:`~repro.vp.indexing.IndexFunction` so PC-pinning contracts are
checked against the *actual* program counters the builder produced,
not against the symbolic collision assumptions of the model.

The machine answers the questions preflight needs:

* which indices did the trainer(s) bring to threshold confidence?
* does the trigger load hit a trained entry (CORRECT / MISPREDICT) or
  fall through (NO_PREDICTION)?
* is the entry a trigger hits *secret-trained* — i.e. does a
  prediction launder a secret value into the trigger's process?

Loads whose effective address the constant propagator cannot resolve
get a fresh symbolic value (distinct from every concrete value and
every other symbol), which is sound for equality-based LVP updates.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import Program
from repro.vp.base import AccessKey
from repro.vp.indexing import IndexFunction, PC_INDEX

if TYPE_CHECKING:
    from repro.analysis.capture import CapturedTrial


class PredictionOutcome(enum.Enum):
    """What the VPS does for one dynamic load, evaluated pre-update.

    Mirrors :class:`repro.core.model.TriggerOutcome` with one extra
    point: ``UNKNOWN`` for loads whose index cannot be resolved
    statically (data-address indexing with an unknown base register).
    """

    CORRECT = "correct"
    MISPREDICT = "mispredict"
    NO_PREDICTION = "no-prediction"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class TriggerEvent:
    """One dynamic load as the abstract VPS saw it."""

    program: str
    pc: int
    addr: Optional[int]
    index: Optional[int]
    outcome: PredictionOutcome
    #: Was the entry this load consulted trained on secret data?
    entry_secret: bool
    tag: Optional[str] = None
    #: The value the predictor would supply (None unless confident).
    entry_value: object = None


@dataclass
class _AbstractEntry:
    """One VPS table entry: LVP (value, confidence) plus provenance."""

    value: object
    confidence: int
    secret: bool = False
    writer: str = ""


class VpsAbstractMachine:
    """Replays captured programs against an abstract, indexed VPS.

    Args:
        index_function: How loads map to table entries (default: the
            paper's PC-based indexing).
        confidence_threshold: Accesses-with-same-value needed before
            the predictor supplies a value.
    """

    def __init__(
        self,
        index_function: IndexFunction = PC_INDEX,
        confidence_threshold: int = 4,
    ) -> None:
        self.index_function = index_function
        self.threshold = confidence_threshold
        self.entries: Dict[int, _AbstractEntry] = {}
        self.events: List[TriggerEvent] = []
        self._symbols = itertools.count()

    # ------------------------------------------------------------------
    def execute(
        self,
        program: Program,
        values: Mapping[Tuple[int, int], int],
        *,
        secret_program: bool = False,
    ) -> List[TriggerEvent]:
        """Run ``program`` through the abstract VPS.

        Args:
            program: The program to replay.
            values: Architectural memory as ``(pid, addr) -> value``;
                unwritten addresses read a fresh symbolic value.
            secret_program: Mark every entry this program trains as
                secret regardless of per-load annotations (used when
                the program's *presence* is the secret).

        Returns:
            The :class:`TriggerEvent` list for this program's loads
            (also appended to :attr:`events`).
        """
        reg_value: Dict[int, Optional[int]] = {}
        emitted: List[TriggerEvent] = []
        for placed in program.dynamic_trace():
            ins = placed.instruction
            if ins.op is Opcode.LI:
                reg_value[ins.dst] = ins.imm
            elif ins.op is Opcode.ALU:
                reg_value[ins.dst] = self._alu(ins, reg_value)
            elif ins.op is Opcode.RDTSC:
                reg_value[ins.dst] = None
            elif ins.op is Opcode.LOAD:
                event = self._load(program, placed.pc, ins, reg_value, values,
                                   secret_program)
                emitted.append(event)
        self.events.extend(emitted)
        return emitted

    def run_trial(self, trial: "CapturedTrial") -> List[TriggerEvent]:
        """Replay every program of a :class:`CapturedTrial`, in order."""
        emitted: List[TriggerEvent] = []
        for captured in trial.programs:
            emitted.extend(self.execute(captured.program, trial.values))
        return emitted

    # ------------------------------------------------------------------
    @property
    def confident_indices(self) -> List[int]:
        """Indices currently at or above the prediction threshold."""
        return [
            index for index, entry in self.entries.items()
            if entry.confidence >= self.threshold
        ]

    def events_for(self, program_name: str) -> List[TriggerEvent]:
        """Events emitted by the named program."""
        return [e for e in self.events if e.program == program_name]

    def predicted_pcs(self, program_name: str) -> frozenset:
        """PCs in ``program_name`` whose loads received a prediction."""
        return frozenset(
            e.pc for e in self.events_for(program_name)
            if e.outcome in (PredictionOutcome.CORRECT,
                             PredictionOutcome.MISPREDICT)
        )

    def secret_predicted_pcs(self, program_name: str) -> frozenset:
        """PCs whose loads were predicted from secret-trained entries."""
        return frozenset(
            e.pc for e in self.events_for(program_name)
            if e.entry_secret
            and e.outcome in (PredictionOutcome.CORRECT,
                              PredictionOutcome.MISPREDICT)
        )

    # ------------------------------------------------------------------
    def _load(
        self,
        program: Program,
        pc: int,
        ins: Instruction,
        reg_value: Dict[int, Optional[int]],
        values: Mapping[Tuple[int, int], int],
        secret_program: bool,
    ) -> TriggerEvent:
        base = 0 if ins.src1 is None else reg_value.get(ins.src1)
        addr = None if base is None else base + ins.imm
        if addr is None and self.index_function.source.value != "pc":
            # Data-address indexing with an unresolvable address: we
            # cannot tell which entry this load touches.  Sound choice:
            # no update, UNKNOWN outcome.
            reg_value[ins.dst] = None
            return self._emit(program, pc, None, None,
                              PredictionOutcome.UNKNOWN, False, ins.tag, None)
        key = AccessKey(pc=pc, addr=addr if addr is not None else 0,
                        pid=program.pid)
        index = self.index_function.index_of(key)
        if addr is None:
            value: object = ("sym", next(self._symbols))
        else:
            value = values.get((program.pid, addr),
                               ("uninit", program.pid, addr))
        entry = self.entries.get(index)
        if entry is None or entry.confidence < self.threshold:
            outcome = PredictionOutcome.NO_PREDICTION
            entry_value: object = None
        elif entry.value == value:
            outcome = PredictionOutcome.CORRECT
            entry_value = entry.value
        else:
            outcome = PredictionOutcome.MISPREDICT
            entry_value = entry.value
        entry_secret = bool(entry and entry.confidence >= self.threshold
                            and entry.secret)
        # LVP update (same lattice as repro.core.model._AbstractVps).
        load_secret = bool(ins.secret) or secret_program
        if entry is None:
            self.entries[index] = _AbstractEntry(
                value=value, confidence=1, secret=load_secret,
                writer=program.name,
            )
        elif entry.value == value:
            entry.confidence += 1
            entry.secret = entry.secret or load_secret
            entry.writer = program.name
        else:
            entry.value = value
            entry.confidence = 0
            entry.secret = load_secret
            entry.writer = program.name
        reg_value[ins.dst] = value if isinstance(value, int) else None
        return self._emit(program, pc, addr, index, outcome, entry_secret,
                          ins.tag, entry_value)

    def _emit(
        self,
        program: Program,
        pc: int,
        addr: Optional[int],
        index: Optional[int],
        outcome: PredictionOutcome,
        entry_secret: bool,
        tag: Optional[str],
        entry_value: object,
    ) -> TriggerEvent:
        return TriggerEvent(
            program=program.name, pc=pc, addr=addr, index=index,
            outcome=outcome, entry_secret=entry_secret, tag=tag,
            entry_value=entry_value,
        )

    @staticmethod
    def _alu(
        ins: Instruction, reg_value: Dict[int, Optional[int]]
    ) -> Optional[int]:
        from repro.analysis.taint import _alu_const

        operands: List[Optional[int]] = [reg_value.get(ins.src1)]
        if ins.src2 is not None:
            operands.append(reg_value.get(ins.src2))
        return _alu_const(ins, operands)
