"""Tests for the machine snapshot/fork engine (`repro.snapshot`).

The contract under test is byte-identity: a trial forked from a
memoized post-prologue snapshot must produce exactly the measurement
that a cold replay of the same seed schedule produces.  The grid
below covers every Table II variant on each channel it supports,
with no defense, a D-type defense, and an R-type defense (which must
fall back to full replay).
"""

from __future__ import annotations

import pytest

from repro.core.attack import AttackConfig, AttackError, AttackRunner
from repro.core.channels import ChannelType
from repro.core.variants import (
    FillUpAttack,
    ModifyTestAttack,
    SpillOverAttack,
    TestHitAttack,
    TrainHitAttack,
    TrainTestAttack,
)
from repro.defenses.delay_effects import DelaySideEffectsDefense
from repro.defenses.random_window import RandomWindowDefense
from repro.memory.hierarchy import MemorySystem
from repro.perf.counters import COUNTERS, PerfCounters
from repro.snapshot import (
    MachineSnapshot,
    approx_state_bytes,
    snapshot_machine,
)
from repro.vp.base import AccessKey, ValuePredictor
from repro.vp.lvp import LastValuePredictor

from tests.conftest import deterministic_memory_config

ALL_VARIANTS = (
    TrainTestAttack,
    TestHitAttack,
    TrainHitAttack,
    SpillOverAttack,
    FillUpAttack,
    ModifyTestAttack,
)

_GRID = [
    (variant_cls, channel)
    for variant_cls in ALL_VARIANTS
    for channel in variant_cls.supported_channels
]


def _defenses():
    return {
        "none": None,
        "d-type": DelaySideEffectsDefense(),
        "r-type": RandomWindowDefense(window_size=6, seed=0xABC),
    }


def _run(variant_cls, channel, defense, *, force_cold=False, **overrides):
    # Pinned to the scalar backend: this suite tests the snapshot/fork
    # engine itself (fork counters, capture bookkeeping), which the
    # batched lockstep backend replaces with in-lane prologue
    # broadcasting; cross-backend snapshot identity is covered by
    # tests/test_sim_backend.py.
    overrides.setdefault("backend", "scalar")
    config = AttackConfig(
        n_runs=5, channel=channel, seed=3, defense=defense,
        snapshot_trials=True, **overrides,
    )
    runner = AttackRunner(variant_cls(), config)
    if force_cold:
        runner._fork_disabled = True
    return runner.run_experiment()


class TestUnitRoundtrip:
    def _predictor_with_history(self):
        predictor = LastValuePredictor(confidence_threshold=4)
        for value in (7, 7, 7, 9):
            predictor.train(AccessKey(pc=0x100, addr=0x2000), value)
        return predictor

    def test_predictor_snapshot_restore_roundtrip(self):
        predictor = self._predictor_with_history()
        state = predictor.snapshot()
        for value in (1, 2, 3):
            predictor.train(AccessKey(pc=0x104, addr=0x2040), value)
        assert predictor.snapshot() != state
        predictor.restore(state)
        assert predictor.snapshot() == state

    def test_memory_snapshot_restore_roundtrip(self):
        memory = MemorySystem(deterministic_memory_config())
        memory.write_value(0, 0x4000, 11)
        memory.load(0, 0x4000)
        state = memory.snapshot()
        memory.write_value(0, 0x5000, 22)
        memory.load(0, 0x5000)
        assert memory.snapshot() != state
        memory.restore(state)
        assert memory.snapshot() == state

    def test_restore_does_not_alias_live_state(self):
        # Mutating the machine after restore must not corrupt the
        # captured state (structural sharing only covers immutables).
        memory = MemorySystem(deterministic_memory_config())
        memory.write_value(0, 0x4000, 11)
        state = memory.snapshot()
        memory.restore(state)
        memory.write_value(0, 0x6000, 33)
        memory.load(0, 0x6000)
        memory.restore(state)
        assert memory.snapshot() == state

    def test_approx_state_bytes_deterministic_and_positive(self):
        memory = MemorySystem(deterministic_memory_config())
        state = memory.snapshot()
        size = approx_state_bytes(state)
        assert size > 0
        assert approx_state_bytes(state) == size

    def test_reseed_jitter_preserves_architectural_state(self):
        memory = MemorySystem(deterministic_memory_config())
        memory.write_value(0, 0x4000, 11)
        state = memory.snapshot()
        memory.reseed_jitter(1234)
        after = memory.snapshot()
        # The jitter RNG streams moved (slots 1 and 5) but every piece
        # of architectural state — caches, TLB, store values — is
        # untouched.
        assert after[2:5] == state[2:5]
        assert after[6] == state[6]
        assert after[1] != state[1]
        assert memory.read_value(0, 0x4000) == 11


class TestForkColdIdentity:
    @pytest.mark.parametrize(
        "variant_cls,channel", _GRID,
        ids=[f"{v.name}/{c.value}" for v, c in _GRID],
    )
    @pytest.mark.parametrize("defense_name", ["none", "d-type", "r-type"])
    def test_fork_matches_cold_replay(
        self, variant_cls, channel, defense_name
    ):
        defenses = _defenses()
        forked = _run(variant_cls, channel, defenses[defense_name])
        cold = _run(
            variant_cls, channel, _defenses()[defense_name],
            force_cold=True,
        )
        assert forked == cold

    def test_snapshot_protocol_actually_forks(self):
        before = COUNTERS.snapshot()
        _run(TrainTestAttack, ChannelType.TIMING_WINDOW, None)
        delta = PerfCounters.delta(before, COUNTERS.snapshot())
        # One capture per hypothesis, every other trial forked.
        assert delta.get("snapshot_prologue_misses", 0) == 2
        assert delta["snapshot_forks"] == 8
        assert delta["snapshot_prologue_hits"] == 8
        assert delta["snapshot_cycles_avoided"] > 0
        assert delta["snapshot_bytes_copied"] > 0

    def test_random_window_forks_under_audit(self):
        # The R streams re-seed from the trial seed at the fork point,
        # so R cells fork like any other defense and every fork equals
        # its cold replay.
        before = COUNTERS.snapshot()
        result = _run(
            TrainTestAttack, ChannelType.TIMING_WINDOW,
            RandomWindowDefense(window_size=6, seed=0xABC),
            audit_snapshots=True,
        )
        delta = PerfCounters.delta(before, COUNTERS.snapshot())
        assert delta["snapshot_forks"] == 8
        assert delta["snapshot_prologue_misses"] == 2
        assert delta["snapshot_audit_replays"] == 8
        assert len(result.comparison.mapped) == 5


class TestFallbacks:
    def test_unsupported_predictor_falls_back(self):
        class OpaquePredictor(ValuePredictor):
            name = "opaque"

            def __init__(self):
                super().__init__()
                self._last = {}

            def predict(self, key):
                return self._record_lookup(None)

            def train(self, key, actual_value, prediction=None):
                self._last[key] = actual_value
                self._record_train(actual_value, prediction)

            def reset(self):
                self._last.clear()

        before = COUNTERS.snapshot()
        result = _run(
            TrainTestAttack, ChannelType.TIMING_WINDOW, None,
            predictor=lambda c: OpaquePredictor(),
        )
        delta = PerfCounters.delta(before, COUNTERS.snapshot())
        assert delta.get("snapshot_forks", 0) == 0
        assert delta["snapshot_prologue_misses"] == 10
        assert len(result.comparison.mapped) == 5

    def test_unsupported_predictor_snapshot_raises(self):
        class Opaque:
            pass

        memory = MemorySystem(deterministic_memory_config())

        class FakeCore:
            def __init__(self):
                self.memory = memory
                self.predictor = Opaque()

            def snapshot(self):
                return (0, 0, 0, 0)

        with pytest.raises((NotImplementedError, AttributeError)):
            snapshot_machine(memory, FakeCore())


class TestAuditMode:
    def test_audit_requires_snapshot_trials(self):
        with pytest.raises(AttackError):
            AttackConfig(n_runs=2, audit_snapshots=True)

    def test_audit_passes_and_counts_replays(self):
        before = COUNTERS.snapshot()
        _run(
            TrainTestAttack, ChannelType.TIMING_WINDOW, None,
            audit_snapshots=True,
        )
        delta = PerfCounters.delta(before, COUNTERS.snapshot())
        assert delta["snapshot_audit_replays"] == delta["snapshot_forks"]
        assert delta["snapshot_forks"] > 0

    def test_audit_detects_divergence(self):
        class DriftingAttack(TrainTestAttack):
            calls = 0

            def run_measured(self, env, mapped):
                DriftingAttack.calls += 1
                return (
                    super().run_measured(env, mapped)
                    + DriftingAttack.calls
                )

        config = AttackConfig(
            n_runs=4, seed=3, snapshot_trials=True, audit_snapshots=True
        )
        with pytest.raises(AttackError, match="audit divergence"):
            AttackRunner(DriftingAttack(), config).run_experiment()


class TestSnapshotDataclass:
    def test_machine_snapshot_is_frozen(self):
        snap = MachineSnapshot(
            memory_state=(), core_state=(), predictor_state=(),
            cycle=0, approx_bytes=0,
        )
        with pytest.raises(Exception):
            snap.cycle = 1  # type: ignore[misc]
