"""Abstract interpretation of the Value Prediction System.

Given a sequence of captured programs and the architectural values the
variant wrote before running them, this pass replays every dynamic
load against the machine's own Last Value Predictor: the table a
:class:`~repro.vp.lvp.LastValuePredictor` owns, changed only by its
``train``, indexed through a real
:class:`~repro.vp.indexing.IndexFunction` so PC-pinning contracts are
checked against the *actual* program counters the builder produced,
not against the symbolic collision assumptions of the model
(:class:`repro.core.model._AbstractVps`, the independent specification
the machine is checked against).  Registers and effective addresses
come from :func:`repro.analysis.taint.constant_walk`, which folds them
with the core's arithmetic and address mask.

The machine answers the questions preflight needs:

* which indices did the trainer(s) bring to threshold confidence?
* does the trigger load hit a trained entry (CORRECT / MISPREDICT) or
  fall through (NO_PREDICTION)?
* is the entry a trigger hits *secret-trained* — i.e. does a
  prediction launder a secret value into the trigger's process?

Loads whose effective address the walk cannot resolve read a fresh
value (distinct from every machine word and every other fresh value),
which is sound for equality-based LVP updates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.analysis.taint import constant_walk
from repro.core.model import TriggerOutcome
from repro.isa.instructions import Opcode
from repro.isa.program import PlacedInstruction, Program
from repro.pipeline.core import EA_MASK
from repro.vp.base import AccessKey
from repro.vp.indexing import PC_INDEX, IndexFunction, IndexSource
from repro.vp.lvp import LastValuePredictor

if TYPE_CHECKING:
    from repro.analysis.capture import CapturedTrial


#: Machine words are 64-bit, so integers outside ``[0, 2**64)`` are
#: free to stand for the values the analysis cannot read.  An unwritten
#: word reads a value fixed by its ``(pid, addr)`` and distinct from
#: every other word's, as the machine's backing store gives; a load
#: from an unresolved address reads a fresh value past ``2**64``.
_ADDRESS_BITS = EA_MASK.bit_length()
_FRESH_BASE = 1 << 64


def _unwritten(pid: int, addr: int) -> int:
    """The stand-in value of the unwritten word ``addr`` of ``pid``."""
    return -1 - ((pid << _ADDRESS_BITS) | addr)


@dataclass(frozen=True)
class TriggerEvent:
    """One dynamic load as the abstract VPS saw it."""

    program: str
    pc: int
    addr: Optional[int]
    index: Optional[int]
    outcome: TriggerOutcome
    #: Was the entry this load consulted trained on secret data?
    entry_secret: bool
    tag: Optional[str] = None
    #: The value the predictor would supply (None unless confident).
    entry_value: Optional[int] = None


class VpsAbstractMachine:
    """Replays captured programs against an indexed LVP.

    The table is the one a default
    :class:`~repro.vp.lvp.LastValuePredictor` owns, and only
    :meth:`~repro.vp.lvp.LastValuePredictor.train` changes it, so the
    replay follows the machine's own confidence rule.  Secret
    provenance lives beside it, keyed by index.

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
        self.predictor = LastValuePredictor(
            confidence_threshold=confidence_threshold,
            index_function=index_function,
        )
        #: Index -> was the entry's current value trained on secret data?
        self.secret: Dict[int, bool] = {}
        self.events: List[TriggerEvent] = []
        self._fresh = itertools.count(_FRESH_BASE)

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
                unwritten addresses read a stand-in value of their own.
            secret_program: Mark every entry this program trains as
                secret regardless of per-load annotations (used when
                the program's *presence* is the secret).

        Returns:
            The :class:`TriggerEvent` list for this program's loads
            (also appended to :attr:`events`).
        """
        emitted = [
            self._load(program, placed, addr, value, secret_program)
            for placed, addr, value in constant_walk(program, values)
            if placed.instruction.op is Opcode.LOAD
        ]
        self.events.extend(emitted)
        return emitted

    def run_trial(self, trial: "CapturedTrial") -> List[TriggerEvent]:
        """Replay every program of a :class:`CapturedTrial`, in order."""
        return [
            event for captured in trial.programs
            for event in self.execute(captured.program, trial.values)
        ]

    # ------------------------------------------------------------------
    @property
    def confident_indices(self) -> List[int]:
        """Indices currently at or above the prediction threshold."""
        threshold = self.predictor.confidence_threshold
        return [
            entry.index for entry in self.predictor.table
            if entry.confidence >= threshold
        ]

    def predicted_pcs(self, program_name: str) -> FrozenSet[int]:
        """PCs in ``program_name`` whose loads received a prediction."""
        return frozenset(
            e.pc for e in self.events
            if e.program == program_name and e.entry_value is not None
        )

    def secret_predicted_pcs(self, program_name: str) -> FrozenSet[int]:
        """PCs whose loads were predicted from secret-trained entries."""
        return frozenset(
            e.pc for e in self.events
            if e.program == program_name and e.entry_secret
        )

    # ------------------------------------------------------------------
    def _load(
        self,
        program: Program,
        placed: PlacedInstruction,
        addr: Optional[int],
        value: Optional[int],
        secret_program: bool,
    ) -> TriggerEvent:
        ins = placed.instruction
        predictor = self.predictor
        if addr is None and predictor.index_function.source is not IndexSource.PC:
            # Data-address indexing with an unresolvable address: we
            # cannot tell which entry this load touches.  Sound choice:
            # no update, UNKNOWN outcome.
            return TriggerEvent(program.name, placed.pc, None, None,
                                TriggerOutcome.UNKNOWN, entry_secret=False,
                                tag=ins.tag)
        key = AccessKey(pc=placed.pc, addr=addr if addr is not None else 0,
                        pid=program.pid)
        index = predictor.index_function.index_of(key)
        if value is None:
            value = (
                next(self._fresh) if addr is None
                else _unwritten(program.pid, addr)
            )
        entry = predictor.table.get(index)
        matched = entry is not None and entry.value == value
        entry_value: Optional[int] = None
        entry_secret = False
        if entry is None or entry.confidence < predictor.confidence_threshold:
            outcome = TriggerOutcome.NO_PREDICTION
        else:
            outcome = (
                TriggerOutcome.CORRECT if matched else TriggerOutcome.MISPREDICT
            )
            entry_value, entry_secret = entry.value, self.secret[index]
        self.secret[index] = (
            bool(ins.secret) or secret_program
            or (matched and self.secret[index])
        )
        predictor.train(key, value)
        return TriggerEvent(
            program=program.name, pc=placed.pc, addr=addr, index=index,
            outcome=outcome, entry_secret=entry_secret, tag=ins.tag,
            entry_value=entry_value,
        )

