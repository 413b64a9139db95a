"""Synthesize executable attacks from model combinations.

The attack model of Section V reasons *abstractly* about what the
trigger step observes.  This module closes the loop the paper leaves
open ("soundness analysis of the model [is] not included due to
limited space"): it compiles **any** (train, modify, trigger)
combination — all 576 of them, not just Table II's 12 — into concrete
sender/receiver programs, runs them on the cycle-level simulator, and
reports the trigger's actual outcome.

The soundness property (checked by ``bench_model_soundness.py`` and
the test suite) is that for every combination, every access-count
choice, and both hypotheses, the simulated trigger outcome equals the
abstract evaluator's prediction.

Symbol grounding: the abstract evaluator describes each access as an
(index symbol, value symbol) pair.  The synthesizer maps index symbols
to load PCs, value symbols to concrete integers, and gives each
(actor, index, value) access its own data address holding that value —
cross-actor known objects hold the *same* value in both address
spaces, the shared-library assumption of Section V-B.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.actions import Action, Actor
from repro.core.model import (
    Combo,
    TriggerOutcome,
    _count_value,
    _evaluate_counts,
    _index_and_value,
    _question_of,
)
from repro.errors import AttackError
from repro.memory.hierarchy import MemoryConfig, MemorySystem
from repro.memory.memsys import DramConfig
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import Core
from repro.vp.lvp import LastValuePredictor
from repro.workloads import gadgets

#: PCs assigned to the abstract index symbols.  All four are distinct:
#: the evaluator treats the data dimension's shared entry and the
#: known index as separate predictor entries (mixed-dimension combos
#: are rejected by rule 2, but the soundness check covers them too).
INDEX_PCS: Dict[object, int] = {
    "shared-entry": 0x2800,
    "I_K": 0x1000,
    "I_S'": 0x1800,
    "I_S''": 0x2000,
}

#: Concrete integers for the abstract value symbols.
VALUE_INTS: Dict[object, int] = {
    "V_K": 100,
    "V_known": 100,
    "V_secret": 50,
    "V_secret'": 51,
    "V_secret''": 52,
    # A mapped secret-index access collides with the known index but
    # carries the *sender's own data* (Figure 3 loads arr1 through the
    # entry the receiver trained with arr3), so its value differs from
    # the known one.
    "V_I_K": 70,
    "V_I_S'": 61,
    "V_I_S''": 62,
}

#: Base of the synthetic data region; one slot per (index, value) pair.
DATA_BASE = 0x500000

PID_OF_ACTOR: Dict[Actor, int] = {Actor.SENDER: 1, Actor.RECEIVER: 2}

BASE_PC_OF_ACTOR: Dict[Actor, int] = {Actor.SENDER: 0x200, Actor.RECEIVER: 0x400}


@dataclass(frozen=True)
class GroundedAccess:
    """One abstract access resolved to concrete machine coordinates."""

    pid: int
    base_pc: int
    pc: int
    addr: int
    value: int


@dataclass(frozen=True)
class SynthesisResult:
    """Outcome of one synthesized trial.

    Attributes:
        observed: The trigger outcome the simulator produced.
        predicted: The abstract evaluator's outcome for the same
            (combo, counts, hypothesis).
        trigger_latency: Cycles from trigger issue to completion.
    """

    observed: TriggerOutcome
    predicted: TriggerOutcome
    trigger_latency: int

    @property
    def sound(self) -> bool:
        """True when the model and the simulation agree."""
        return self.observed is self.predicted


def _deterministic_memory() -> MemorySystem:
    return MemorySystem(MemoryConfig(
        dram=DramConfig(base_latency=200, jitter=0, tail_probability=0.0),
        l2_jitter=0,
    ))


def slot_address(index_symbol: object, value_symbol: object) -> int:
    """A distinct data address for each (index, value) symbol pair.

    For index-dimension accesses the address is tied to the index
    symbol alone (one location per index, as in the model); for the
    data dimension each value symbol gets its own location behind the
    shared entry.
    """
    index_slot = list(INDEX_PCS).index(
        index_symbol if index_symbol in INDEX_PCS else "shared-entry"
    )
    value_slot = list(VALUE_INTS).index(value_symbol)
    return DATA_BASE + (index_slot * 16 + value_slot) * 0x100


def ground_access(action: Action, mapped: bool, question: str) -> GroundedAccess:
    """Resolve one abstract access to concrete machine coordinates.

    Shared by trial synthesis, the 576-combo static enumerator and the
    dynamic :class:`~repro.workloads.combos.ComboAttack` so all three
    realise the model's symbols identically.
    """
    index_symbol, value_symbol = _index_and_value(action, mapped, question)
    assert action.actor is not None  # empty actions access nothing
    return GroundedAccess(
        pid=PID_OF_ACTOR[action.actor],
        base_pc=BASE_PC_OF_ACTOR[action.actor],
        pc=INDEX_PCS[index_symbol],
        addr=slot_address(index_symbol, value_symbol),
        value=VALUE_INTS[value_symbol],
    )


def _ground(action: Action, mapped: bool, question: str) -> Tuple[int, int, int, int]:
    """(pid, load PC, data address, value) for one access."""
    grounded = ground_access(action, mapped, question)
    return grounded.pid, grounded.pc, grounded.addr, grounded.value


def synthesize_trial(
    combo: Combo,
    train_count: str = "confidence",
    modify_count: str = "one",
    mapped: bool = True,
    confidence: int = 4,
) -> SynthesisResult:
    """Build and run one concrete trial of ``combo``.

    Args:
        combo: Any (train, modify, trigger) combination.
        train_count: ``"confidence"`` or ``"confidence-1"``.
        modify_count: ``"retrain"`` or ``"one"`` (ignored when the
            modify step is empty).
        mapped: Which secret hypothesis to realise.
        confidence: The predictor's confidence threshold.

    Returns:
        The observed-vs-predicted outcome pair.

    Raises:
        AttackError: For invalid count names (via the model helpers).
    """
    question = _question_of(combo)
    memory = _deterministic_memory()
    predictor = LastValuePredictor(confidence_threshold=confidence)
    core = Core(memory, predictor, CoreConfig())

    steps = [(combo.train, _count_value(train_count, confidence))]
    if not combo.modify.is_none:
        steps.append((combo.modify, _count_value(modify_count, confidence)))

    # Ground every access and pre-write the values both address spaces
    # would see (known objects are shared-library data: same value for
    # sender and receiver copies).
    for action in combo.actions:
        pid, _, addr, value = _ground(action, mapped, question)
        memory.write_value(1, addr, value)
        memory.write_value(2, addr, value)

    for step_number, (action, count) in enumerate(steps):
        pid, pc, addr, _ = _ground(action, mapped, question)
        if count < 1:
            continue
        core.run(gadgets.train_program(
            f"step{step_number}", pid, BASE_PC_OF_ACTOR[action.actor],
            pc, addr, count,
        ))

    trigger_pid, trigger_pc, trigger_addr, _ = _ground(
        combo.trigger, mapped, question
    )
    program = gadgets.plain_trigger_program(
        "trigger", trigger_pid, BASE_PC_OF_ACTOR[combo.trigger.actor],
        trigger_pc, trigger_addr, chain_length=4,
    )
    result = core.run(program)
    events = [
        event for event in result.loads_tagged(program, "trigger-load")
        if not event.l1_hit
    ]
    if len(events) != 1:
        raise AttackError(
            f"expected exactly one trigger miss, got {len(events)} "
            f"for {combo.symbol}"
        )
    event = events[0]
    if not event.predicted:
        observed = TriggerOutcome.NO_PREDICTION
    elif event.prediction_correct:
        observed = TriggerOutcome.CORRECT
    else:
        observed = TriggerOutcome.MISPREDICT

    predicted_pair = _evaluate_counts(
        combo, train_count, modify_count, confidence
    )
    predicted = predicted_pair[0] if mapped else predicted_pair[1]
    return SynthesisResult(
        observed=observed,
        predicted=predicted,
        trigger_latency=event.latency,
    )


def check_soundness(
    combo: Combo, confidence: int = 4
) -> Dict[Tuple[str, str, bool], SynthesisResult]:
    """Run every count/hypothesis choice of ``combo`` and compare.

    Returns a mapping from (train_count, modify_count, mapped) to the
    synthesis result; the model is sound for the combo iff every
    result's ``sound`` flag is True.
    """
    modify_counts = ("retrain", "one") if not combo.modify.is_none else ("one",)
    results: Dict[Tuple[str, str, bool], SynthesisResult] = {}
    for train_count in ("confidence", "confidence-1"):
        for modify_count in modify_counts:
            for mapped in (True, False):
                results[(train_count, modify_count, mapped)] = (
                    synthesize_trial(
                        combo,
                        train_count=train_count,
                        modify_count=modify_count,
                        mapped=mapped,
                        confidence=confidence,
                    )
                )
    return results
