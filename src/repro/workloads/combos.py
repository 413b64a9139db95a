"""Dynamic realisation of arbitrary (train, modify, trigger) combos.

The six classes of :mod:`repro.core.variants` hand-implement the
Table II categories.  :class:`ComboAttack` instead compiles *any*
:class:`~repro.core.model.Combo` — including the 564 the model calls
reducible or invalid — into a runnable attack variant, using the same
symbol grounding as the soundness synthesizer and the static hunt
(:func:`repro.core.synthesis.ground_access`).  The hunt's dynamic
confirmation stage (:mod:`repro.harness.hunt`) runs these through the
standard :class:`~repro.core.attack.AttackRunner` measurement path so
static certificates and dynamic p-values describe literally the same
programs.

Timing-window only: the generic grounding has no probe-array or
co-runner story, and Table III's primary channel is the timing window.
The measured window is RDTSC-bracketed when the receiver triggers and
the trigger program's own run time when the sender does (internal
interference), mirroring the hand-written variants.
"""

from __future__ import annotations

from typing import List

from repro.core.actions import Action, Actor
from repro.core.attack import TrialEnv
from repro.core.channels import ChannelType
from repro.core.model import (
    AttackCategory,
    Combo,
    _count_value,
    question_of_dimension,
)
from repro.core.synthesis import GroundedAccess, ground_access
from repro.core.variants import AttackVariant
from repro.workloads import gadgets
from repro.workloads.gadgets import Layout


class ComboAttack(AttackVariant):
    """One Table I combination, runnable on a :class:`TrialEnv`.

    Args:
        combo: Any (train, modify, trigger) combination.
        category: The Table II category reported in results — for
            effective combos their own category, for reducible ones
            the terminal class's (the hunt passes it in).
        train_count: ``"confidence"`` or ``"confidence-1"``.
        modify_count: ``"retrain"`` or ``"one"`` (ignored when the
            modify step is empty).
    """

    supported_channels = (ChannelType.TIMING_WINDOW,)
    default_chain_length = 80

    def __init__(
        self,
        combo: Combo,
        *,
        category: AttackCategory,
        train_count: str = "confidence",
        modify_count: str = "one",
    ) -> None:
        self.combo = combo
        self.category = category
        self.train_count = train_count
        self.modify_count = modify_count
        self.name = f"combo {combo.symbol}"
        self.pattern = combo.symbol
        self.num_phases = 2 if combo.modify.is_none else 3

    # ------------------------------------------------------------------
    def _ground(self, action: Action, mapped: bool) -> GroundedAccess:
        assert action.dimension is not None
        return ground_access(
            action, mapped, question_of_dimension(self.combo, action.dimension)
        )

    def run_prologue(self, env: TrialEnv, mapped: bool) -> None:
        """Write every access's value, then run train/modify programs."""
        self._require_channel(env)
        # Known objects are shared-library data: the same value exists
        # in both address spaces (Section V-B), so write under both
        # pids exactly as the synthesizer and the static hunt do.
        for action in self.combo.actions:
            grounded = self._ground(action, mapped)
            env.memory.write_value(1, grounded.addr, grounded.value)
            env.memory.write_value(2, grounded.addr, grounded.value)

        steps = [(
            self.combo.train, "combo-train", "train-load",
            _count_value(self.train_count, env.confidence),
        )]
        if not self.combo.modify.is_none:
            steps.append((
                self.combo.modify, "combo-modify", "modify-load",
                _count_value(self.modify_count, env.confidence),
            ))
        for action, name, tag, count in steps:
            if count < 1:
                continue
            grounded = self._ground(action, mapped)
            env.core.run(gadgets.train_program(
                name, grounded.pid, grounded.base_pc, grounded.pc,
                grounded.addr, count, tag=tag, secret=action.is_secret,
            ))

    def run_measured(self, env: TrialEnv, mapped: bool) -> float:
        """RDTSC window (receiver trigger) or trigger run time (sender)."""
        grounded = self._ground(self.combo.trigger, mapped)
        if self.combo.trigger.actor is Actor.RECEIVER:
            result = env.core.run(gadgets.timed_trigger_program(
                "combo-trigger", grounded.pid, grounded.base_pc,
                grounded.pc, grounded.addr, env.chain_length,
                secret=self.combo.trigger.is_secret,
            ))
            return float(result.rdtsc_delta())
        result = env.core.run(gadgets.plain_trigger_program(
            "combo-trigger", grounded.pid, grounded.base_pc,
            grounded.pc, grounded.addr, env.chain_length,
            secret=self.combo.trigger.is_secret,
        ))
        return float(result.cycles)

    def trigger_pcs(self, layout: Layout) -> List[int]:
        """Both hypotheses' trigger PCs (they differ for index combos)."""
        return sorted({
            self._ground(self.combo.trigger, mapped).pc
            for mapped in (True, False)
        })
