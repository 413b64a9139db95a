"""The lane-pool scheduler (:mod:`repro.sim.schedule`).

The pool's one promise is that scheduling is *invisible*: every
``TrialResult`` is byte-identical to the per-cell batched backend (and
therefore to the scalar reference) no matter how trials are admitted —
which cell they came from, in what order, at what lane width, through
which interim look, across a crash/resume boundary, or after a replay
divergence.  These tests pin that promise, the fault-handling paths
(divergence fallback, tape aborts, warm-machine poisoning), the
demand-driven admission contract, and the policy/CLI wiring.
"""

import dataclasses
import random

import pytest

from repro.core.attack import AttackConfig, AttackRunner
from repro.core.channels import ChannelType
from repro.core.variants import variant_by_name
from repro.errors import HarnessError, ReproError
from repro.perf.counters import COUNTERS, PerfCounters
from repro.sim.schedule import _defense_key, pool_backend

numpy = pytest.importorskip("numpy")


@pytest.fixture(autouse=True)
def _fresh_pool():
    """Each test sees an empty pool; none leaks tapes to the next."""
    pool_backend().reset()
    yield
    pool_backend().reset()


def _defense(kind):
    if kind == "none":
        return None
    if kind == "D":
        from repro.defenses.delay_effects import DelaySideEffectsDefense

        return DelaySideEffectsDefense()
    if kind == "R":
        from repro.defenses.random_window import RandomWindowDefense

        return RandomWindowDefense()
    if kind == "A":
        from repro.defenses.always_predict import AlwaysPredictDefense

        return AlwaysPredictDefense()
    if kind == "full":
        from repro.defenses import full_stack

        return full_stack(9, "history")
    raise AssertionError(kind)


def _runner(variant, backend, *, channel=ChannelType.TIMING_WINDOW,
            defense="none", **overrides):
    return AttackRunner(variant, AttackConfig(
        n_runs=overrides.pop("n_runs", 8),
        channel=channel,
        predictor=overrides.pop("predictor", "lvp"),
        seed=overrides.pop("seed", 0),
        defense=_defense(defense),
        backend=backend,
        **overrides,
    ))


def _stream(runner, start=0, stop=None):
    stop = runner.config.n_runs if stop is None else stop
    return [
        ((mapped.measurement, mapped.sim_cycles),
         (unmapped.measurement, unmapped.sim_cycles))
        for mapped, unmapped in runner.backend.run_pairs(
            runner, start, stop
        )
    ]


def _delta(before):
    return PerfCounters.delta(before, COUNTERS.snapshot())


# ---------------------------------------------------------------------------
# Identity: the pool is byte-for-byte the batched backend
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant_name", ["Train + Hit", "Train + Test",
                                          "Spill Over"])
@pytest.mark.parametrize("channel", [ChannelType.TIMING_WINDOW,
                                     ChannelType.PERSISTENT],
                         ids=lambda c: c.value)
@pytest.mark.parametrize("predictor", ["lvp", "none", "vtage"])
def test_streams_identical_to_batched(variant_name, channel, predictor):
    variant = variant_by_name(variant_name)
    if channel not in variant.supported_channels:
        pytest.skip(f"{variant.name} has no {channel.value} receiver")
    batched = _stream(_runner(variant, "batched",
                              channel=channel, predictor=predictor))
    pooled = _stream(_runner(variant, "pool",
                             channel=channel, predictor=predictor))
    assert pooled == batched


@pytest.mark.parametrize("defense", ["D", "R", "A", "full"])
def test_defended_streams_identical(defense):
    variant = variant_by_name("Train + Hit")
    batched = _stream(_runner(variant, "batched", defense=defense))
    pooled = _stream(_runner(variant, "pool", defense=defense))
    assert pooled == batched


def test_snapshot_protocol_composes():
    variant = variant_by_name("Train + Test")
    batched = _stream(_runner(variant, "batched", snapshot_trials=True))
    pooled = _stream(_runner(variant, "pool", snapshot_trials=True))
    assert pooled == batched


def test_lane_width_never_affects_results(monkeypatch):
    """A tape recorded at one width replays exactly at any other.

    The reference is per-cell batched at the stock width; the pool
    then records under each patched width and replays for a
    *different* (compatible, other-seed) runner at that width.
    """
    import repro.sim.batched as batched_module

    variant = variant_by_name("Train + Hit")
    reference = {
        seed: _stream(_runner(variant, "batched", n_runs=10, seed=seed))
        for seed in (0, 9)
    }
    for lanes in (1, 7, 128):
        pool_backend().reset()
        monkeypatch.setattr(batched_module, "CHUNK_LANES", lanes)
        recorder = _runner(variant, "pool", n_runs=10, seed=0)
        # Two dispatches: the first records (partial cell), the
        # second replays — then a compatible runner rides the tape.
        got = (_stream(recorder, 0, 4) + _stream(recorder, 4, 10))
        assert got == reference[0], f"lane width {lanes} (recorder)"
        other = _runner(variant, "pool", n_runs=10, seed=9)
        assert _stream(other) == reference[9], f"lane width {lanes}"


def test_admission_order_never_affects_results():
    """Shuffled interleavings over mixed cells: results never move.

    Four cells share the pool — two compatible (same shape, different
    seeds), one incompatible channel, one incompatible variant — and
    their trial ranges are dispatched in three different shuffled
    interleavings.  Every reassembled stream must equal the per-cell
    batched reference, tapes warm or cold, whatever arrived first.
    """
    tt = variant_by_name("Train + Test")
    th = variant_by_name("Train + Hit")
    cells = [
        dict(variant=tt, channel=ChannelType.TIMING_WINDOW, seed=0),
        dict(variant=tt, channel=ChannelType.TIMING_WINDOW, seed=5),
        dict(variant=tt, channel=ChannelType.PERSISTENT, seed=0),
        dict(variant=th, channel=ChannelType.TIMING_WINDOW, seed=0),
    ]
    n_runs = 9
    reference = [
        _stream(_runner(cell["variant"], "batched", n_runs=n_runs,
                        channel=cell["channel"], seed=cell["seed"]))
        for cell in cells
    ]
    slices = [(0, 3), (3, 7), (7, 9)]
    for round_index in range(3):
        schedule = [
            (cell_index, start, stop)
            for cell_index in range(len(cells))
            for start, stop in slices
        ]
        random.Random(round_index).shuffle(schedule)
        runners = [
            _runner(cell["variant"], "pool", n_runs=n_runs,
                    channel=cell["channel"], seed=cell["seed"])
            for cell in cells
        ]
        got = [{} for _ in cells]
        for cell_index, start, stop in schedule:
            rows = _stream(runners[cell_index], start, stop)
            for offset, row in enumerate(rows):
                got[cell_index][start + offset] = row
        for cell_index, cell_reference in enumerate(reference):
            reassembled = [
                got[cell_index][i] for i in range(n_runs)
            ]
            assert reassembled == cell_reference, (
                f"cell {cell_index}, shuffle {round_index}"
            )


def test_interim_looks_replay_one_recording():
    """A sequential cell's later looks replay the first look's tape."""
    variant = variant_by_name("Train + Test")

    def looks(backend, cuts):
        runner = _runner(variant, backend, n_runs=11)
        experiment = runner.run_incremental()
        for cut in cuts:
            experiment.advance(cut)
        result = experiment.result()
        return (float(result.pvalue),
                result.comparison.mapped.samples,
                result.comparison.unmapped.samples)

    reference = looks("batched", [11])
    before = COUNTERS.snapshot()
    assert looks("pool", [3, 5, 11]) == reference
    delta = _delta(before)
    assert delta.get("pool_passes_recorded", 0) >= 2
    assert delta.get("pool_passes_replayed", 0) >= 2
    assert delta.get("pool_replay_divergences", 0) == 0


def test_value_blind_nopredictor_cells_are_tapeable():
    """Persistent no-VP cells record and replay (value-blind training).

    A ``NoPredictor`` ignores the trained value, so the non-uniform
    per-lane probe values that would force a lane split under a real
    predictor are dead state — the pass tapes cleanly.  A real
    predictor on the same cell must instead abort the recording
    (the split is semantic) and run untaped, still byte-identical.
    """
    variant = variant_by_name("Train + Test")

    batched = _stream(_runner(variant, "batched", n_runs=8,
                              channel=ChannelType.PERSISTENT,
                              predictor="none"))
    before = COUNTERS.snapshot()
    runner = _runner(variant, "pool", n_runs=8,
                     channel=ChannelType.PERSISTENT, predictor="none")
    assert _stream(runner, 0, 4) + _stream(runner, 4, 8) == batched
    delta = _delta(before)
    assert delta.get("pool_passes_recorded", 0) == 2
    assert delta.get("pool_passes_replayed", 0) == 2

    batched = _stream(_runner(variant, "batched", n_runs=8,
                              channel=ChannelType.PERSISTENT,
                              predictor="lvp"))
    before = COUNTERS.snapshot()
    runner = _runner(variant, "pool", n_runs=8,
                     channel=ChannelType.PERSISTENT, predictor="lvp")
    assert _stream(runner, 0, 4) + _stream(runner, 4, 8) == batched
    delta = _delta(before)
    assert delta.get("pool_tapes_invalid", 0) >= 1
    assert delta.get("pool_passes_replayed", 0) == 0


def test_compatible_cells_share_one_tape():
    """Different seeds (and cost models) ride one recorded pass."""
    variant = variant_by_name("Train + Hit")
    before = COUNTERS.snapshot()
    recorder = _runner(variant, "pool", n_runs=8, seed=0)
    _stream(recorder, 0, 4)
    assert _delta(before).get("pool_passes_recorded", 0) == 2

    for seed, sync in ((7, 0), (13, 400)):
        reference = _stream(_runner(variant, "batched", n_runs=8,
                                    seed=seed, sync_base_cycles=sync))
        before = COUNTERS.snapshot()
        pooled = _runner(variant, "pool", n_runs=8, seed=seed,
                         sync_base_cycles=sync)
        assert _stream(pooled) == reference
        delta = _delta(before)
        assert delta.get("pool_passes_recorded", 0) == 0
        assert delta.get("pool_passes_replayed", 0) == 2


def test_record_heuristic_declines_unamortizable_passes():
    """A single dispatch covering the whole cell never records."""
    variant = variant_by_name("Train + Hit")
    reference = _stream(_runner(variant, "batched", n_runs=6))
    before = COUNTERS.snapshot()
    assert _stream(_runner(variant, "pool", n_runs=6)) == reference
    delta = _delta(before)
    assert delta.get("pool_passes_recorded", 0) == 0
    assert not pool_backend()._tapes


# ---------------------------------------------------------------------------
# Harness level: sequential sweeps and crash/resume
# ---------------------------------------------------------------------------


def _sweep(tmp_path, specs, policy, label, subset=None, resume=False):
    from repro._version import __version__
    from repro.harness.checkpoint import CheckpointStore
    from repro.harness.parallel import run_cells

    store = CheckpointStore.open(
        str(tmp_path / label),
        {"version": __version__, "schedule_test": True}, resume=resume,
    )
    run_cells(subset if subset is not None else specs, store, policy,
              workers=1)
    if subset is not None:
        return store
    return {spec.cell_id: store.load(spec.cell_id) for spec in specs}


def test_sequential_sweep_payloads_identical(tmp_path):
    """The Table III sweep, group-sequential, pool vs per-cell batched."""
    from repro.harness.parallel import sweep_specs
    from repro.harness.runner import ExecutionPolicy, SequentialPolicy

    specs = sweep_specs(["table3"], n_runs=16, seed=0)

    def policy(**kwargs):
        return dataclasses.replace(
            ExecutionPolicy.compat(), sequential=SequentialPolicy(),
            **kwargs,
        )

    batched = _sweep(tmp_path, specs, policy(backend="batched"), "batched")
    before = COUNTERS.snapshot()
    pooled = _sweep(tmp_path, specs, policy(lane_schedule="pool"), "pool")
    delta = _delta(before)
    assert pooled == batched
    offered = delta.get("pool_lanes_offered", 0)
    assert offered > 0
    assert delta.get("pool_lanes_filled", 0) == offered, (
        "demand-driven admission should make occupancy exact"
    )


def test_midsweep_crash_and_resume(tmp_path):
    """A pool sweep killed mid-run resumes to the same artifacts.

    The first pass completes only 7 of 18 cells (the "crash"); the
    resumed pass reloads those journaled cells verbatim and runs the
    rest through a *fresh* pool — tapes are an in-process cache, not
    persisted state, so losing them can only cost speed.
    """
    from repro.harness.parallel import sweep_specs
    from repro.harness.runner import ExecutionPolicy, SequentialPolicy

    specs = sweep_specs(["table3"], n_runs=12, seed=0)
    policy = dataclasses.replace(
        ExecutionPolicy.compat(), sequential=SequentialPolicy(),
    )
    batched = _sweep(
        tmp_path, specs,
        dataclasses.replace(policy, backend="batched"), "batched",
    )
    pool_policy = dataclasses.replace(policy, lane_schedule="pool")
    _sweep(tmp_path, specs, pool_policy, "pool", subset=specs[:7])
    pool_backend().reset()  # the crash takes the process's tapes with it
    resumed = _sweep(tmp_path, specs, pool_policy, "pool", resume=True)
    assert resumed == batched


# ---------------------------------------------------------------------------
# Fault handling: divergence, tape aborts, poisoned machines
# ---------------------------------------------------------------------------


def test_replay_divergence_falls_back_to_interpretation(monkeypatch):
    """A guard divergence at replay re-runs the pass interpretively."""
    import repro.sim.schedule as schedule_module
    from repro.sim.tape import ReplayDivergence

    variant = variant_by_name("Train + Hit")
    reference = _stream(_runner(variant, "batched", n_runs=8))
    runner = _runner(variant, "pool", n_runs=8)
    first = _stream(runner, 0, 4)  # records

    def diverge(tape, seeds, default_seeds=None):
        raise ReplayDivergence("injected guard mismatch")

    before = COUNTERS.snapshot()
    with monkeypatch.context() as patched:
        patched.setattr(schedule_module, "replay", diverge)
        second = _stream(runner, 4, 8)
    delta = _delta(before)
    assert first + second == reference
    assert delta.get("pool_replay_divergences", 0) == 2
    assert delta.get("pool_passes_replayed", 0) == 0
    # The tape itself is not condemned: with the fault gone it serves
    # the next compatible dispatch again.
    before = COUNTERS.snapshot()
    other = _runner(variant, "pool", n_runs=8, seed=3)
    assert _stream(other) == _stream(
        _runner(variant, "batched", n_runs=8, seed=3)
    )
    assert _delta(before).get("pool_passes_replayed", 0) == 2


def test_tape_invalid_marks_norecord_and_reruns(monkeypatch):
    """A pass the tape cannot express aborts, re-runs, never re-records."""
    from repro.sim.batched import BatchedBackend
    from repro.sim.tape import TapeInvalid

    variant = variant_by_name("Train + Hit")
    reference = _stream(_runner(variant, "batched", n_runs=8))

    original = BatchedBackend._run_batch

    def refuse_recording(self, runner, mapped, indices, seeds=None,
                         mem=None, tape=None):
        if tape is not None:
            raise TapeInvalid("injected untapeable op")
        return original(self, runner, mapped, indices, seeds=seeds,
                        mem=mem, tape=tape)

    monkeypatch.setattr(BatchedBackend, "_run_batch", refuse_recording)
    runner = _runner(variant, "pool", n_runs=8)
    before = COUNTERS.snapshot()
    got = _stream(runner, 0, 4) + _stream(runner, 4, 8)
    delta = _delta(before)
    assert got == reference
    assert delta.get("pool_tapes_invalid", 0) == 2
    assert delta.get("pool_passes_recorded", 0) == 0
    assert not pool_backend()._tapes
    # The second dispatch hit the norecord set: no further aborts.
    compat_keys = len(pool_backend()._norecord)
    assert compat_keys == 2  # one per hypothesis


def test_failed_pass_poisons_checked_out_machine(monkeypatch):
    """A mid-pass failure never returns its hierarchy to the pool."""
    from repro.sim import lockstep

    variant = variant_by_name("Train + Hit")
    scalar_reference = _stream(
        _runner(variant, "scalar", n_runs=6, predictor="vtage")
    )
    _stream(_runner(variant, "pool", n_runs=6))  # warms one hierarchy
    pool = pool_backend()
    assert len(pool._mems) == 1

    def exploding(self, *args, **kwargs):
        raise lockstep.LaneDivergence("injected mid-pass failure")

    with monkeypatch.context() as patched:
        patched.setattr(
            lockstep.LockstepMachine, "run_program", exploding
        )
        # Different predictor: incompatible tape key, same machine
        # shape — so the pass checks out the warm hierarchy, fails,
        # and the chunk falls back to scalar with correct results.
        got = _stream(_runner(variant, "pool", n_runs=6,
                              predictor="vtage"))
    assert got == scalar_reference
    assert len(pool._mems) == 0, (
        "a hierarchy touched by a failed pass must not be re-pooled"
    )


def test_reset_drops_all_pooled_state():
    variant = variant_by_name("Train + Hit")
    runner = _runner(variant, "pool", n_runs=8)
    _stream(runner, 0, 4)
    pool = pool_backend()
    assert pool._tapes and pool._mems and pool._key_cache
    pool.reset()
    assert not pool._tapes
    assert not pool._norecord
    assert not pool._mems
    assert not pool._pins
    assert not pool._key_cache


def test_defense_keys():
    """Config-only defenses share by value; stateful ones by identity."""
    from repro.defenses.random_window import RandomWindowDefense

    assert _defense_key(None) == ("none",)
    d1, d2 = _defense("D"), _defense("D")
    assert _defense_key(d1) == _defense_key(d2)
    assert _defense_key(d1)[0] == "cfg"
    # R is configuration too: its streams derive from the trial seed.
    r1, r2 = _defense("R"), _defense("R")
    assert _defense_key(r1)[0] == "cfg"
    assert _defense_key(r1) == _defense_key(r2)
    assert _defense_key(r1) != _defense_key(RandomWindowDefense(8))
    assert _defense_key(r1) != _defense_key(RandomWindowDefense(3, seed=1))
    s1, s2 = _defense("full"), _defense("full")
    assert _defense_key(s1)[0] == "id"
    assert _defense_key(s1) != _defense_key(s2)


# ---------------------------------------------------------------------------
# Demand-driven admission
# ---------------------------------------------------------------------------


def test_next_demand_contract():
    from repro.stats.sequential import SequentialDesign

    design = SequentialDesign(looks=(3, 5, 11))
    assert design.next_demand(0) == 3
    assert design.next_demand(3) == 2
    assert design.next_demand(4) == 1  # resumed between looks
    assert design.next_demand(5) == 6
    assert design.next_demand(11) == 0
    assert design.next_demand(50) == 0


def test_note_early_stop_accounting():
    variant = variant_by_name("Train + Hit")
    pool = pool_backend()
    before = COUNTERS.pool_trials_clipped
    pool.note_early_stop(_runner(variant, "pool", n_runs=50), 10)
    assert COUNTERS.pool_trials_clipped - before == 2 * (50 - 10)
    before = COUNTERS.pool_trials_clipped
    pool.note_early_stop(_runner(variant, "pool", n_runs=200), 130)
    assert COUNTERS.pool_trials_clipped - before == 0


# ---------------------------------------------------------------------------
# Policy and CLI wiring
# ---------------------------------------------------------------------------


class TestLaneSchedulePolicy:
    def test_unknown_schedule_fails_loudly(self):
        from repro.harness.runner import ExecutionPolicy

        with pytest.raises(HarnessError, match="lane schedule"):
            ExecutionPolicy(lane_schedule="vector")

    def test_pool_conflicts_with_pinned_backend(self):
        from repro.harness.runner import ExecutionPolicy

        with pytest.raises(HarnessError, match="pinned explicitly"):
            ExecutionPolicy(lane_schedule="pool", backend="scalar")

    def test_effective_backend_resolution(self):
        from repro.harness.runner import ExecutionPolicy

        assert ExecutionPolicy().effective_backend() is None
        assert ExecutionPolicy(
            backend="batched"
        ).effective_backend() == "batched"
        assert ExecutionPolicy(
            lane_schedule="pool"
        ).effective_backend() == "pool"
        assert ExecutionPolicy(
            lane_schedule="pool", backend="pool"
        ).effective_backend() == "pool"

    def test_cli_resolver(self):
        import argparse

        from repro.cli import _effective_backend

        def args(**kwargs):
            return argparse.Namespace(
                backend=kwargs.get("backend"),
                lane_schedule=kwargs.get("lane_schedule"),
            )

        assert _effective_backend(args()) is None
        assert _effective_backend(args(backend="batched")) == "batched"
        assert _effective_backend(
            args(lane_schedule="pool")
        ) == "pool"
        assert _effective_backend(
            args(lane_schedule="pool", backend="pool")
        ) == "pool"
        assert _effective_backend(
            args(lane_schedule="cell", backend="batched")
        ) == "batched"
        with pytest.raises(ReproError, match="pinned explicitly"):
            _effective_backend(
                args(lane_schedule="pool", backend="scalar")
            )
