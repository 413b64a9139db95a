"""Concrete implementations of the six attack categories (Table II).

Each variant knows how to run one end-to-end trial for either secret
hypothesis ("mapped"/"unmapped", as defined per attack in Section
IV-D) on a :class:`~repro.core.attack.TrialEnv`, and returns the
receiver's scalar measurement:

===============  ==========================================  ==============================
Category         Pattern (canonical Table II row)            Channels
===============  ==========================================  ==============================
Train + Test     (R^KI, S^SI', R^KI)                         timing, persistent, volatile
Test + Hit       (S^SD', —, R^KD)                            timing, persistent, volatile
Train + Hit      (R^KD, —, S^SD')                            timing
Spill Over       (S^SD', S^SD'', S^SD')                      timing
Fill Up          (S^SD', —, S^SD'')                          timing, persistent, volatile
Modify + Test    (S^SI', R^KI, S^SI')                        timing
===============  ==========================================  ==============================

Table III evaluates the timing-window and persistent columns; the
volatile channel is this reproduction's extension of the paper's
Section V-A-4 claim that the same three categories support it.

Timing-window measurements come from RDTSC-bracketed receiver code
(Train + Test, Test + Hit) or from the observed run time of the
sender's trigger invocation (internal interference — Train + Hit,
Spill Over, Fill Up, Modify + Test).  Persistent measurements are the
FLUSH+RELOAD latency of the target probe line.

Data values are chosen so that "different" objects hold different
small integers (valid probe-array indices, as in Figure 4's
``arr2[x*512]``).
"""

from __future__ import annotations

import abc
from typing import List, Tuple

from repro.core.attack import TrialEnv
from repro.core.channels import (
    ChannelType,
    probe_latencies_from_rdtsc,
)
from repro.core.model import AttackCategory
from repro.errors import AttackError
from repro.workloads import gadgets
from repro.workloads.gadgets import Layout

# Data values: distinct per object so unmapped hypotheses mismatch.
# "Different" values are kept far apart (>> any R-type defense window
# evaluated in Section VI-B) so randomised predictions around one value
# never accidentally hit another; all stay below the 256-line probe
# array bound so every value is a valid Figure 4-style encode index.
VALUE_RECEIVER_KNOWN = 3   #: receiver's known data ("arr3")
VALUE_SENDER_KNOWN = 40    #: sender's known data ("arr1")
VALUE_SECRET_BASE = 5      #: the secret value under the mapped hypothesis
VALUE_SECRET_OTHER = 60    #: the secret value under the unmapped hypothesis
VALUE_NEUTRAL = 2          #: trigger data that matches no candidate


class AttackVariant(abc.ABC):
    """One attack category, runnable on a :class:`TrialEnv`."""

    name: str = "attack"
    category: AttackCategory
    pattern: str = ""
    supported_channels: Tuple[ChannelType, ...] = (ChannelType.TIMING_WINDOW,)
    #: Dependent-chain length of the trigger window (variant default;
    #: overridable through AttackConfig.chain_length).  Variants differ
    #: deliberately: the signal-to-noise ratio of each attack in the
    #: paper differs (cf. Table III p-values), which is what produces
    #: the different minimal R-type windows in Section VI-B.
    default_chain_length: int = 80
    #: Phases (victim/attacker hand-offs) per trial, for rate modelling.
    num_phases: int = 3

    def run(self, env: TrialEnv, mapped: bool) -> float:
        """Run one full trial; returns the receiver's measurement.

        A trial is the train/modify prologue followed by the measured
        trigger/encode/decode window.
        """
        self.run_prologue(env, mapped)
        return self.run_measured(env, mapped)

    @abc.abstractmethod
    def run_prologue(self, env: TrialEnv, mapped: bool) -> None:
        """Set up data values and run the train/modify programs."""

    @abc.abstractmethod
    def run_measured(self, env: TrialEnv, mapped: bool) -> float:
        """Run the measured window; returns the receiver's measurement."""

    def trigger_pcs(self, layout: Layout) -> List[int]:
        """Load PCs the oracle predictor should serve."""
        return [layout.collide_pc]

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _require_channel(self, env: TrialEnv) -> None:
        if env.channel not in self.supported_channels:
            raise AttackError(
                f"{self.name} does not support {env.channel.value}"
            )

    @staticmethod
    def _volatile_trial(
        env: TrialEnv,
        trigger_pid: int,
        trigger_base_pc: int,
        trigger_pc: int,
        trigger_addr: int,
        secret: bool = False,
    ) -> float:
        """Run the trigger concurrently with a multiplier-port probe.

        The volatile channel of Section V-A-4: the trigger's dependent
        multiply burst fires inside the transient window; a
        misprediction replays it, so the co-running observer's
        port-bound window grows by one extra burst.  The measurement
        is the observer's RDTSC delta.
        """
        trigger = gadgets.mul_burst_trigger_program(
            "vol-trigger", trigger_pid, trigger_base_pc,
            trigger_pc, trigger_addr, secret=secret,
        )
        probe = gadgets.mul_probe_program(
            "vol-probe", env.layout.receiver_pid, env.layout.probe_base_pc,
        )
        results = env.core.run_concurrent([trigger, probe])
        return float(results[1].rdtsc_delta())

    @staticmethod
    def _probe_line_latency(env: TrialEnv, line: int) -> float:
        """Reload latency of one probe line (persistent-channel decode).

        The receiver reloads the full probe range in a real attack;
        the experiment's scalar measurement is the target line's
        latency (its histogram is what Figures 5/8 plot).
        """
        program = gadgets.probe_program(
            "probe",
            env.layout.receiver_pid,
            env.layout.probe_base_pc,
            env.layout,
            [line],
        )
        result = env.core.run(program)
        return float(probe_latencies_from_rdtsc(result.rdtsc_values, 1)[0])


class TrainTestAttack(AttackVariant):
    """Train + Test (Figure 3): the receiver learns a victim *index*.

    The receiver trains the predictor at a chosen index; the sender's
    secret-conditional code re-trains (``modify_mode="retrain"``) or
    invalidates (``"invalidate"``) that entry iff secret = 1; the
    receiver's trigger then observes a misprediction (or no
    prediction) instead of the correct prediction it set up.
    """

    name = "Train + Test"
    category = AttackCategory.TRAIN_TEST
    pattern = "(R^KI, S^SI', R^KI)"
    supported_channels = (
        ChannelType.TIMING_WINDOW, ChannelType.PERSISTENT,
        ChannelType.VOLATILE,
    )
    default_chain_length = 32
    num_phases = 3

    def run_prologue(self, env: TrialEnv, mapped: bool) -> None:
        """See :meth:`AttackVariant.run_prologue`."""
        self._require_channel(env)
        layout = env.layout
        env.write_receiver_value(layout.receiver_known_addr, VALUE_RECEIVER_KNOWN)
        env.write_sender_value(layout.sender_known_addr, VALUE_SENDER_KNOWN)

        # 1) Train: receiver sets a known state at the collide index.
        env.core.run(gadgets.train_program(
            "tt-train", layout.receiver_pid, layout.receiver_base_pc,
            layout.collide_pc, layout.receiver_known_addr, env.confidence,
        ))

        # 2) Modify: the sender's secret-conditional accesses (Figure 3
        #    sender lines 3-6) run only when the secret is 1.
        if mapped:
            count = env.retrain_count if env.modify_mode == "retrain" else 1
            env.core.run(gadgets.train_program(
                "tt-modify", layout.sender_pid, layout.sender_base_pc,
                layout.collide_pc, layout.sender_known_addr, count,
                tag="modify-load",
            ))

    def run_measured(self, env: TrialEnv, mapped: bool) -> float:
        """See :meth:`AttackVariant.run_measured`."""
        layout = env.layout
        # 3) Trigger + 4/5) encode/decode.
        if env.channel is ChannelType.TIMING_WINDOW:
            result = env.core.run(gadgets.timed_trigger_program(
                "tt-trigger", layout.receiver_pid, layout.receiver_base_pc,
                layout.collide_pc, layout.receiver_known_addr,
                env.chain_length,
            ))
            return float(result.rdtsc_delta())
        if env.channel is ChannelType.VOLATILE:
            # Mapped: the trigger mispredicts and its multiply burst
            # replays, doubling the port pressure the probe feels.
            return self._volatile_trial(
                env, layout.receiver_pid, layout.receiver_base_pc,
                layout.collide_pc, layout.receiver_known_addr,
            )
        env.core.run(gadgets.encode_trigger_program(
            "tt-trigger", layout.receiver_pid, layout.receiver_base_pc,
            layout.collide_pc, layout.receiver_known_addr, layout,
            flush_lines=[VALUE_SENDER_KNOWN, VALUE_RECEIVER_KNOWN],
        ))
        return self._probe_line_latency(env, VALUE_SENDER_KNOWN)


class TestHitAttack(AttackVariant):
    """Test + Hit (Figure 4): the receiver learns a victim *value*.

    The sender trains its secret value into the predictor; the
    receiver's trigger at the same index receives that value as a
    prediction and (persistent variant) transiently encodes it into
    the probe array.
    """

    name = "Test + Hit"
    category = AttackCategory.TEST_HIT
    pattern = "(S^SD', —, R^KD)"
    supported_channels = (
        ChannelType.TIMING_WINDOW, ChannelType.PERSISTENT,
        ChannelType.VOLATILE,
    )
    default_chain_length = 160
    num_phases = 2

    #: The receiver's known_bit (Figure 4 line 4).
    known_bit = 0
    #: The candidate the persistent decode checks (guess for secret_bit).
    guess_bit = 1
    #: Unmapped secret for the timing-window variant: far from the
    #: known value so an R-type window around the trained value cannot
    #: straddle both (the persistent variant keeps the paper's 0/1).
    far_secret = 64

    def run_prologue(self, env: TrialEnv, mapped: bool) -> None:
        """See :meth:`AttackVariant.run_prologue`."""
        self._require_channel(env)
        layout = env.layout
        if env.channel in (ChannelType.TIMING_WINDOW, ChannelType.VOLATILE):
            # Mapped = trigger data equals trained data (Section IV-D2).
            secret_bit = self.known_bit if mapped else self.far_secret
        else:
            # Mapped = the encoded secret is the probed candidate.
            secret_bit = self.guess_bit if mapped else 1 - self.guess_bit
        env.write_sender_value(layout.secret_addr, secret_bit)
        env.write_receiver_value(layout.receiver_known_addr, self.known_bit)

        # 1) Train: sender's repeated secret accesses (Figure 4 lines 2-5).
        env.core.run(gadgets.train_program(
            "th-train", layout.sender_pid, layout.sender_base_pc,
            layout.collide_pc, layout.secret_addr, env.confidence,
            secret=True,
        ))

    def run_measured(self, env: TrialEnv, mapped: bool) -> float:
        """See :meth:`AttackVariant.run_measured`."""
        layout = env.layout
        # 3) Trigger by the receiver at the same index.
        if env.channel is ChannelType.TIMING_WINDOW:
            result = env.core.run(gadgets.timed_trigger_program(
                "th-trigger", layout.receiver_pid, layout.receiver_base_pc,
                layout.collide_pc, layout.receiver_known_addr,
                env.chain_length,
            ))
            return float(result.rdtsc_delta())
        if env.channel is ChannelType.VOLATILE:
            # Unmapped: misprediction replays the burst -> slower probe.
            return self._volatile_trial(
                env, layout.receiver_pid, layout.receiver_base_pc,
                layout.collide_pc, layout.receiver_known_addr,
            )
        env.core.run(gadgets.encode_trigger_program(
            "th-trigger", layout.receiver_pid, layout.receiver_base_pc,
            layout.collide_pc, layout.receiver_known_addr, layout,
            flush_lines=[0, 1],
        ))
        return self._probe_line_latency(env, self.guess_bit)


class TrainHitAttack(AttackVariant):
    """Train + Hit: known-data train, single secret-data trigger.

    The receiver trains a known guess value, then observes the run
    time of the sender's single secret access at the colliding index:
    a correct prediction (secret equals the guess) is fast, a
    misprediction is slow.
    """

    name = "Train + Hit"
    category = AttackCategory.TRAIN_HIT
    pattern = "(R^KD, —, S^SD')"
    supported_channels = (ChannelType.TIMING_WINDOW,)
    default_chain_length = 90
    num_phases = 2

    def run_prologue(self, env: TrialEnv, mapped: bool) -> None:
        """See :meth:`AttackVariant.run_prologue`."""
        self._require_channel(env)
        layout = env.layout
        guess = VALUE_SECRET_BASE
        secret = guess if mapped else VALUE_SECRET_OTHER
        env.write_receiver_value(layout.receiver_known_addr, guess)
        env.write_sender_value(layout.secret_addr, secret)

        env.core.run(gadgets.train_program(
            "trh-train", layout.receiver_pid, layout.receiver_base_pc,
            layout.collide_pc, layout.receiver_known_addr, env.confidence,
        ))

    def run_measured(self, env: TrialEnv, mapped: bool) -> float:
        """See :meth:`AttackVariant.run_measured`."""
        layout = env.layout
        result = env.core.run(gadgets.plain_trigger_program(
            "trh-trigger", layout.sender_pid, layout.sender_base_pc,
            layout.collide_pc, layout.secret_addr, env.chain_length,
            secret=True,
        ))
        return float(result.cycles)


class SpillOverAttack(AttackVariant):
    """Spill Over: are two victim secrets equal?

    ``confidence - 1`` accesses to D', one access to D'', then one
    trigger access to D'.  Equal secrets push the confidence over the
    threshold (correct prediction, fast); different secrets reset it
    (*no prediction*, slower) — the paper's novel no-prediction vs.
    correct-prediction timing signal.
    """

    name = "Spill Over"
    category = AttackCategory.SPILL_OVER
    pattern = "(S^SD', S^SD'', S^SD')"
    supported_channels = (ChannelType.TIMING_WINDOW,)
    default_chain_length = 110
    num_phases = 3

    def run_prologue(self, env: TrialEnv, mapped: bool) -> None:
        """See :meth:`AttackVariant.run_prologue`."""
        self._require_channel(env)
        layout = env.layout
        first_secret = VALUE_SECRET_BASE
        second_secret = first_secret if mapped else VALUE_SECRET_OTHER
        env.write_sender_value(layout.secret_addr, first_secret)
        env.write_sender_value(layout.secret_addr2, second_secret)

        if env.confidence > 1:
            env.core.run(gadgets.train_program(
                "so-train", layout.sender_pid, layout.sender_base_pc,
                layout.collide_pc, layout.secret_addr, env.confidence - 1,
                secret=True,
            ))
        env.core.run(gadgets.train_program(
            "so-modify", layout.sender_pid, layout.sender_base_pc,
            layout.collide_pc, layout.secret_addr2, 1, tag="modify-load",
            secret=True,
        ))

    def run_measured(self, env: TrialEnv, mapped: bool) -> float:
        """See :meth:`AttackVariant.run_measured`."""
        layout = env.layout
        result = env.core.run(gadgets.plain_trigger_program(
            "so-trigger", layout.sender_pid, layout.sender_base_pc,
            layout.collide_pc, layout.secret_addr, env.chain_length,
            secret=True,
        ))
        return float(result.cycles)


class FillUpAttack(AttackVariant):
    """Fill Up: trained secret vs. a second secret, or value extraction.

    Timing window: trigger access to D'' is predicted correctly iff
    D'' equals the trained D'.  Persistent: the trigger's prediction
    *is* the trained secret, so a victim Spectre-gadget transiently
    encodes it into a shared probe array for the receiver to reload.
    """

    name = "Fill Up"
    category = AttackCategory.FILL_UP
    pattern = "(S^SD', —, S^SD'')"
    supported_channels = (
        ChannelType.TIMING_WINDOW, ChannelType.PERSISTENT,
        ChannelType.VOLATILE,
    )
    default_chain_length = 110
    num_phases = 2

    #: Persistent decode's candidate for the trained secret value.
    guess_value = VALUE_SECRET_BASE

    def run_prologue(self, env: TrialEnv, mapped: bool) -> None:
        """See :meth:`AttackVariant.run_prologue`."""
        self._require_channel(env)
        layout = env.layout
        if env.channel in (ChannelType.TIMING_WINDOW, ChannelType.VOLATILE):
            trained = VALUE_SECRET_BASE
            trigger_value = trained if mapped else VALUE_SECRET_OTHER
        else:
            # Mapped = the trained secret equals the probed candidate;
            # the trigger data is neutral so only the *prediction*
            # determines what gets encoded transiently.
            trained = self.guess_value if mapped else VALUE_SECRET_OTHER
            trigger_value = VALUE_NEUTRAL
        env.write_sender_value(layout.secret_addr, trained)
        env.write_sender_value(layout.secret_addr2, trigger_value)

        env.core.run(gadgets.train_program(
            "fu-train", layout.sender_pid, layout.sender_base_pc,
            layout.collide_pc, layout.secret_addr, env.confidence,
            secret=True,
        ))

    def run_measured(self, env: TrialEnv, mapped: bool) -> float:
        """See :meth:`AttackVariant.run_measured`."""
        layout = env.layout
        if env.channel is ChannelType.TIMING_WINDOW:
            result = env.core.run(gadgets.plain_trigger_program(
                "fu-trigger", layout.sender_pid, layout.sender_base_pc,
                layout.collide_pc, layout.secret_addr2, env.chain_length,
                secret=True,
            ))
            return float(result.cycles)
        if env.channel is ChannelType.VOLATILE:
            # The sender's trigger burst replays on a mismatch; the
            # receiver's co-running probe senses the extra pressure.
            return self._volatile_trial(
                env, layout.sender_pid, layout.sender_base_pc,
                layout.collide_pc, layout.secret_addr2, secret=True,
            )
        env.core.run(gadgets.encode_trigger_program(
            "fu-trigger", layout.sender_pid, layout.sender_base_pc,
            layout.collide_pc, layout.secret_addr2, layout,
            flush_lines=[self.guess_value, VALUE_SECRET_OTHER, VALUE_NEUTRAL],
            secret=True,
        ))
        return self._probe_line_latency(env, self.guess_value)


class ModifyTestAttack(AttackVariant):
    """Modify + Test: the flipped Train + Test.

    The sender trains at its secret-dependent index; the receiver
    re-trains (or invalidates) the entry at its guessed index; the
    sender's trigger is slow (mispredict / no prediction) exactly when
    the guess matched the secret index.
    """

    name = "Modify + Test"
    category = AttackCategory.MODIFY_TEST
    pattern = "(S^SI', R^KI, S^SI')"
    supported_channels = (ChannelType.TIMING_WINDOW,)
    default_chain_length = 90
    num_phases = 3

    def run_prologue(self, env: TrialEnv, mapped: bool) -> None:
        """See :meth:`AttackVariant.run_prologue`."""
        self._require_channel(env)
        layout = env.layout
        # The sender's load PC is its secret: collide_pc iff secret = 1.
        sender_pc = layout.collide_pc if mapped else layout.alt_pc
        env.write_sender_value(layout.secret_addr, VALUE_SECRET_BASE)
        env.write_receiver_value(
            layout.receiver_known_addr, VALUE_RECEIVER_KNOWN
        )

        env.core.run(gadgets.train_program(
            "mt-train", layout.sender_pid, layout.sender_base_pc,
            sender_pc, layout.secret_addr, env.confidence,
            secret=True,
        ))
        count = env.retrain_count if env.modify_mode == "retrain" else 1
        env.core.run(gadgets.train_program(
            "mt-modify", layout.receiver_pid, layout.receiver_base_pc,
            layout.collide_pc, layout.receiver_known_addr, count,
            tag="modify-load",
        ))

    def run_measured(self, env: TrialEnv, mapped: bool) -> float:
        """See :meth:`AttackVariant.run_measured`."""
        layout = env.layout
        sender_pc = layout.collide_pc if mapped else layout.alt_pc
        result = env.core.run(gadgets.plain_trigger_program(
            "mt-trigger", layout.sender_pid, layout.sender_base_pc,
            sender_pc, layout.secret_addr, env.chain_length,
            secret=True,
        ))
        return float(result.cycles)

    def trigger_pcs(self, layout: Layout) -> List[int]:
        """Load PCs the oracle predictor should serve."""
        return [layout.collide_pc, layout.alt_pc]


#: All six categories, in Table III order.
ALL_VARIANTS: Tuple[AttackVariant, ...] = (
    TrainHitAttack(),
    TrainTestAttack(),
    SpillOverAttack(),
    TestHitAttack(),
    FillUpAttack(),
    ModifyTestAttack(),
)


def variant_by_name(name: str) -> AttackVariant:
    """Look up a variant by its Table III name (case-insensitive)."""
    for variant in ALL_VARIANTS:
        if variant.name.lower() == name.lower():
            return variant
    raise AttackError(f"unknown attack variant {name!r}")
