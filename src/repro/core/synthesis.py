"""Realize Table I combinations as attacks, and check the model on them.

The attack model of Section V reasons *abstractly* about what the
trigger step observes.  :class:`ComboAttack` compiles **any** (train,
modify, trigger) combination — all 576 of them, not just Table II's
12 — and one access-count choice into concrete sender/receiver
programs and memory values.  It is the only realization of a combo,
and three consumers run it:

* the static hunt (:mod:`repro.analysis.enumerate`) captures it and
  interprets its programs abstractly;
* the hunt's dynamic confirmation (:mod:`repro.harness.hunt`) measures
  it through the standard :class:`~repro.core.attack.AttackRunner`
  path;
* :func:`synthesize_trial` runs its prologue and trigger on a quiet
  scalar machine and reports the trigger's actual outcome, closing the
  loop the paper leaves open ("soundness analysis of the model [is]
  not included due to limited space").

So the hunt's certificate, its p-values and the soundness check
describe the same programs, apart from the trigger's dependent-chain
length, which the abstract interpreter ignores.

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
from typing import Dict, List, Optional, Tuple

from repro.core.actions import Action, Actor
from repro.core.attack import TrialEnv
from repro.core.channels import ChannelType
from repro.core.model import (
    AttackCategory,
    Combo,
    TriggerOutcome,
    _count_value,
    _evaluate_counts,
    _index_and_value,
    count_choices,
)
from repro.core.variants import AttackVariant
from repro.errors import AttackError
from repro.isa.program import Program
from repro.memory.hierarchy import MemoryConfig, MemorySystem
from repro.memory.memsys import DramConfig
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import Core
from repro.vp.lvp import LastValuePredictor
from repro.workloads import gadgets
from repro.workloads.gadgets import Layout

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

#: Program name and load tag of the train and modify steps.
_STEP_PROGRAMS = (("combo-train", "train-load"), ("combo-modify", "modify-load"))


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


def ground_access(combo: Combo, action: Action, mapped: bool) -> GroundedAccess:
    """Resolve one of ``combo``'s accesses to machine coordinates."""
    index_symbol, value_symbol = _index_and_value(combo, action, mapped)
    assert action.actor is not None  # empty actions access nothing
    return GroundedAccess(
        pid=PID_OF_ACTOR[action.actor],
        base_pc=BASE_PC_OF_ACTOR[action.actor],
        pc=INDEX_PCS[index_symbol],
        addr=slot_address(index_symbol, value_symbol),
        value=VALUE_INTS[value_symbol],
    )


class ComboAttack(AttackVariant):
    """One Table I combination and count choice, runnable on a :class:`TrialEnv`.

    Timing-window only: the generic grounding has no probe-array or
    co-runner story, and Table III's primary channel is the timing
    window.  The measured window is RDTSC-bracketed when the receiver
    triggers and the trigger program's own run time when the sender
    does (internal interference), mirroring the hand-written variants.

    Args:
        combo: Any (train, modify, trigger) combination.
        train_count: ``"confidence"`` or ``"confidence-1"``.
        modify_count: ``"retrain"`` or ``"one"`` (ignored when the
            modify step is empty).
        category: The Table II category a measured result records:
            an effective combo's own, a reducible one's terminal
            class's.  Only a measurement reads it, so a capture or a
            soundness trial leaves it unset.
    """

    supported_channels = (ChannelType.TIMING_WINDOW,)
    default_chain_length = 80

    def __init__(
        self,
        combo: Combo,
        *,
        train_count: str = "confidence",
        modify_count: str = "one",
        category: Optional[AttackCategory] = None,
    ) -> None:
        self.combo = combo
        self.train_count = train_count
        self.modify_count = modify_count
        if category is not None:
            self.category = category
        self.name = f"combo {combo.symbol}"
        self.pattern = combo.symbol
        self.num_phases = 2 if combo.modify.is_none else 3
        #: Each hypothesis's accesses, grounded once, in step order.
        self._grounded: Dict[bool, List[GroundedAccess]] = {
            mapped: [
                ground_access(combo, action, mapped)
                for action in combo.actions
            ]
            for mapped in (True, False)
        }

    def run_prologue(self, env: TrialEnv, mapped: bool) -> None:
        """Write every access's value, then run the train/modify programs."""
        self._require_channel(env)
        grounded = self._grounded[mapped]
        # Known objects are shared-library data: the same value exists
        # in both address spaces (Section V-B).
        for access in grounded:
            for pid in PID_OF_ACTOR.values():
                env.memory.write_value(pid, access.addr, access.value)
        counts = (self.train_count, self.modify_count)
        for action, access, count, (name, tag) in zip(
            self.combo.actions[:-1], grounded, counts, _STEP_PROGRAMS
        ):
            accesses = _count_value(count, env.confidence)
            if accesses < 1:
                continue
            env.core.run(gadgets.train_program(
                name, access.pid, access.base_pc, access.pc, access.addr,
                accesses, tag=tag, secret=action.is_secret,
            ))

    def run_measured(self, env: TrialEnv, mapped: bool) -> float:
        """RDTSC window (receiver trigger) or trigger run time (sender)."""
        result = env.core.run(self.trigger_program(mapped, env.chain_length))
        if self.combo.trigger.actor is Actor.RECEIVER:
            return float(result.rdtsc_delta())
        return float(result.cycles)

    def trigger_program(self, mapped: bool, chain_length: int) -> Program:
        """The trigger program :meth:`run_measured` runs."""
        access = self._grounded[mapped][-1]
        build = (
            gadgets.timed_trigger_program
            if self.combo.trigger.actor is Actor.RECEIVER
            else gadgets.plain_trigger_program
        )
        return build(
            "combo-trigger", access.pid, access.base_pc, access.pc,
            access.addr, chain_length, secret=self.combo.trigger.is_secret,
        )

    def trigger_pcs(self, layout: Layout) -> List[int]:
        """Both hypotheses' trigger PCs (they differ for index combos)."""
        return sorted({grounded[-1].pc for grounded in self._grounded.values()})


def synthesize_trial(
    combo: Combo,
    train_count: str = "confidence",
    modify_count: str = "one",
    mapped: bool = True,
    confidence: int = 4,
) -> SynthesisResult:
    """Run one :class:`ComboAttack` trial of ``combo`` on a quiet machine.

    The machine has no DRAM or L2 jitter, so the trigger's outcome is
    the predictor's alone.

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
        ModelError: For invalid count names (via the model helpers).
        AttackError: When the trigger load does not miss exactly once.
    """
    attack = ComboAttack(
        combo, train_count=train_count, modify_count=modify_count,
    )
    memory = _deterministic_memory()
    core = Core(
        memory, LastValuePredictor(confidence_threshold=confidence),
        CoreConfig(),
    )
    env = TrialEnv(
        core=core, memory=memory, layout=Layout(), confidence=confidence,
        channel=ChannelType.TIMING_WINDOW, chain_length=4,
        modify_mode="retrain",
    )
    attack.run_prologue(env, mapped)
    program = attack.trigger_program(mapped, env.chain_length)
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
    return {
        (train_count, modify_count, mapped): synthesize_trial(
            combo, train_count=train_count, modify_count=modify_count,
            mapped=mapped, confidence=confidence,
        )
        for train_count, modify_count in count_choices(combo)
        for mapped in (True, False)
    }
