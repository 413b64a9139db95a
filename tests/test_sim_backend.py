"""The simulation-backend layer (:mod:`repro.sim`).

Three contracts keep the batched lockstep backend honest:

1. **Identity** — every ``TrialResult`` it produces is byte-identical
   to the scalar reference across the Table II variant matrix, both
   channels, the full defense column {none, D, R, A, InvisiSpec,
   composite}, the vtage predictor, and the full Table III sweep
   (the acceptance criteria of ISSUEs 8 and 9, enforced here rather
   than only in the slow bench).
2. **Schedule purity** — per-trial results are a pure function of the
   trial index: lane width, chunk boundaries and advance() cut points
   must never change a single draw.
3. **Honest degradation** — unsupported configurations fall back to
   scalar with the reason journaled, and a missing numpy fails with an
   actionable error instead of a mid-sweep surprise.
"""

import sys

import pytest

from repro.core.attack import AttackConfig, AttackRunner
from repro.core.channels import ChannelType
from repro.core.variants import ALL_VARIANTS, variant_by_name
from repro.errors import BackendUnavailableError, SimBackendError
from repro.sim import (
    BACKEND_ENV,
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    clear_fallback_journal,
    fallback_journal,
    get_backend,
    resolve_backend_name,
)

numpy = pytest.importorskip("numpy")


def _defense(kind):
    """A fresh defense instance per runner (defenses are pure
    configuration, so sharing one would be equally valid)."""
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
    if kind == "I":
        from repro.defenses.invisispec import InvisiSpecDefense

        return InvisiSpecDefense()
    if kind == "full":
        from repro.defenses import full_stack

        return full_stack(9, "history")
    raise AssertionError(kind)


def _runner(variant, backend, *, channel=ChannelType.TIMING_WINDOW,
            defense="none", **overrides):
    return AttackRunner(variant, AttackConfig(
        n_runs=overrides.pop("n_runs", 6),
        channel=channel,
        predictor=overrides.pop("predictor", "lvp"),
        seed=overrides.pop("seed", 0),
        defense=_defense(defense),
        backend=backend,
        **overrides,
    ))


def _stream(runner, start=0, stop=None):
    """The (measurement, sim_cycles) pair stream for a trial range."""
    stop = runner.config.n_runs if stop is None else stop
    return [
        ((mapped.measurement, mapped.sim_cycles),
         (unmapped.measurement, unmapped.sim_cycles))
        for mapped, unmapped in runner.backend.run_pairs(
            runner, start, stop
        )
    ]


# ---------------------------------------------------------------------------
# Registry, selection, availability
# ---------------------------------------------------------------------------


class TestBackendRegistry:
    def test_names_and_default(self):
        assert BACKEND_NAMES == ("batched", "pool", "scalar")
        assert DEFAULT_BACKEND == "scalar"

    def test_resolution_order(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_backend_name(None) == "scalar"
        monkeypatch.setenv(BACKEND_ENV, "batched")
        assert resolve_backend_name(None) == "batched"
        # Explicit beats the environment.
        assert resolve_backend_name("scalar") == "scalar"

    def test_unknown_names_fail_loudly(self, monkeypatch):
        with pytest.raises(SimBackendError, match="vectorised"):
            resolve_backend_name("vectorised")
        with pytest.raises(SimBackendError):
            get_backend("gpu")
        monkeypatch.setenv(BACKEND_ENV, "typo")
        with pytest.raises(SimBackendError, match="typo"):
            resolve_backend_name(None)

    def test_runner_resolves_backend_eagerly(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        runner = _runner(ALL_VARIANTS[0], None)
        assert runner.backend.name == "scalar"
        monkeypatch.setenv(BACKEND_ENV, "batched")
        runner = _runner(ALL_VARIANTS[0], None)
        assert runner.backend.name == "batched"
        with pytest.raises(SimBackendError):
            _runner(ALL_VARIANTS[0], "nope")

    def test_missing_numpy_error_is_actionable(self, monkeypatch):
        # A None entry in sys.modules makes ``import numpy`` raise
        # ImportError, simulating a scalar-only install.
        monkeypatch.setitem(sys.modules, "numpy", None)
        monkeypatch.delitem(sys.modules, "repro.sim.lockstep", raising=False)
        with pytest.raises(BackendUnavailableError, match=r"repro\[batch\]"):
            get_backend("batched")
        with pytest.raises(BackendUnavailableError):
            _runner(ALL_VARIANTS[0], "batched")
        # Scalar keeps working without numpy.
        _stream(_runner(ALL_VARIANTS[0], "scalar", n_runs=2))


# ---------------------------------------------------------------------------
# Cross-backend identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", ALL_VARIANTS,
                         ids=lambda v: v.name.replace(" ", ""))
@pytest.mark.parametrize("channel", [ChannelType.TIMING_WINDOW,
                                     ChannelType.PERSISTENT],
                         ids=lambda c: c.value)
@pytest.mark.parametrize("defense", ["none", "D", "R", "A", "I", "full"])
def test_trial_streams_identical(variant, channel, defense):
    """Table II matrix x channels x the full defense column.

    Byte-identical streams whether the cell vectorizes (none, D,
    InvisiSpec everywhere; R through lane partitions; A on timing
    cells) or takes the journaled runtime fallback (nested speculation
    under A on persistent cells): identity is the contract either way.
    """
    if channel not in variant.supported_channels:
        pytest.skip(f"{variant.name} has no {channel.value} receiver")
    clear_fallback_journal()
    scalar = _stream(_runner(variant, "scalar",
                             channel=channel, defense=defense))
    batched = _stream(_runner(variant, "batched",
                              channel=channel, defense=defense))
    assert batched == scalar


@pytest.mark.parametrize("channel", [ChannelType.TIMING_WINDOW,
                                     ChannelType.PERSISTENT],
                         ids=lambda c: c.value)
@pytest.mark.parametrize("predictor", ["none", "vtage"])
def test_trial_streams_identical_other_predictors(predictor, channel):
    variant = variant_by_name(
        "Train + Hit" if channel is ChannelType.TIMING_WINDOW
        else "Train + Test"
    )
    clear_fallback_journal()
    scalar = _stream(_runner(variant, "scalar",
                             predictor=predictor, channel=channel))
    batched = _stream(_runner(variant, "batched",
                              predictor=predictor, channel=channel))
    assert batched == scalar
    # vtage is a first-class lane-uniform predictor now — these cells
    # must vectorize outright, not pass via scalar fallback.
    assert fallback_journal() == []


def test_table3_sweep_verdicts_identical(tmp_path):
    """Acceptance: the full 18-cell Table III sweep, both backends."""
    import dataclasses

    from repro._version import __version__
    from repro.harness.checkpoint import CheckpointStore
    from repro.harness.parallel import run_cells, sweep_specs
    from repro.harness.runner import ExecutionPolicy

    specs = sweep_specs(["table3"], n_runs=6, seed=0)
    assert len(specs) == 18

    def sweep(backend):
        store = CheckpointStore.open(
            str(tmp_path / backend),
            {"version": __version__, "backend_test": True}, resume=False,
        )
        policy = dataclasses.replace(
            ExecutionPolicy.compat(), backend=backend
        )
        run_cells(specs, store, policy, workers=1)
        return {spec.cell_id: store.load(spec.cell_id) for spec in specs}

    assert sweep("batched") == sweep("scalar")


def test_snapshot_protocol_composes(monkeypatch):
    """Snapshot-forked trials are identical across backends too."""
    for variant_name in ("Train + Hit", "Train + Test"):
        variant = variant_by_name(variant_name)
        scalar = _stream(_runner(variant, "scalar", snapshot_trials=True))
        batched = _stream(_runner(variant, "batched", snapshot_trials=True))
        assert batched == scalar


@pytest.mark.parametrize("defense", ["D", "R", "A", "I", "full"])
def test_snapshot_protocol_composes_with_defenses(defense):
    """Snapshot forking x every defense: still byte-identical."""
    variant = variant_by_name("Train + Test")
    scalar = _stream(_runner(variant, "scalar",
                             snapshot_trials=True, defense=defense))
    batched = _stream(_runner(variant, "batched",
                              snapshot_trials=True, defense=defense))
    assert batched == scalar


def test_incremental_advance_composes_with_defense_and_channel():
    """Group-sequential looks under a defended persistent cell."""
    variant = variant_by_name("Train + Test")

    def looks(backend, cuts):
        runner = _runner(variant, backend, n_runs=11, defense="D",
                         channel=ChannelType.PERSISTENT)
        experiment = runner.run_incremental()
        for cut in cuts:
            experiment.advance(cut)
        result = experiment.result()
        return (float(result.pvalue),
                result.comparison.mapped.samples,
                result.comparison.unmapped.samples)

    reference = looks("scalar", [11])
    assert looks("batched", [11]) == reference
    assert looks("batched", [3, 5, 11]) == reference


def test_incremental_advance_boundaries_compose():
    """Group-sequential looks: odd cut points never change a trial."""
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

    reference = looks("scalar", [11])
    assert looks("batched", [11]) == reference
    assert looks("batched", [2, 3, 7, 11]) == reference
    assert looks("scalar", [5, 11]) == reference


# ---------------------------------------------------------------------------
# Schedule purity: lane width and chunking are not observable
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lanes", [1, 3, 8])
def test_lane_width_never_affects_draws(monkeypatch, lanes):
    import repro.sim.batched as batched_module

    variant = variant_by_name("Train + Hit")
    reference = _stream(_runner(variant, "batched", n_runs=10))
    monkeypatch.setattr(batched_module, "CHUNK_LANES", lanes)
    assert _stream(_runner(variant, "batched", n_runs=10)) == reference


def test_range_splits_never_affect_draws():
    variant = variant_by_name("Spill Over")
    whole = _stream(_runner(variant, "batched", n_runs=9))
    runner = _runner(variant, "batched", n_runs=9)
    split = (_stream(runner, 0, 4) + _stream(runner, 4, 6)
             + _stream(runner, 6, 9))
    assert split == whole


@pytest.mark.parametrize("channel", [ChannelType.TIMING_WINDOW,
                                     ChannelType.PERSISTENT],
                         ids=lambda c: c.value)
@pytest.mark.parametrize("defense", ["none", "R", "A", "D", "I", "full"])
@pytest.mark.parametrize("backend", ["scalar", "batched"])
def test_trial_ranges_run_alone_are_invariant(backend, defense, channel):
    """Trials ``[k, k+m)`` run alone equal the same trials inside
    ``[0, k+m)``: every trial is a pure function of its seed, under
    every defense (``full`` is R+A+D) and on both backends."""
    variant = variant_by_name("Train + Test")
    k, m = 5, 4
    whole = _stream(_runner(variant, backend, defense=defense,
                            channel=channel, n_runs=k + m))
    alone = _stream(_runner(variant, backend, defense=defense,
                            channel=channel, n_runs=k + m), k, k + m)
    assert alone == whole[k:]


_R_MATRIX_RUNS = 8


def _r_matrix_payloads(backend):
    """Payloads of the defense matrix's R cells at a small n_runs."""
    from benchmarks.bench_schedule import _defense_matrix_cases
    from repro.cli import parse_defense
    from repro.harness.checkpoint import serialize_result
    from repro.harness.experiment import run_cell

    return {
        f"{variant.name}/{channel.value}/{spec}/{predictor}": (
            serialize_result(run_cell(
                variant, channel, predictor, _R_MATRIX_RUNS, 2,
                defense=parse_defense(spec), backend=backend,
            ))
        )
        for variant, channel, spec, predictor in _defense_matrix_cases()
        if spec.startswith("R[")
    }


@pytest.fixture(scope="module")
def r_matrix_reference():
    return _r_matrix_payloads("scalar")


@pytest.mark.parametrize("lanes", [1, 7, 128])
def test_r_matrix_cells_identical_at_any_lane_width(
    monkeypatch, r_matrix_reference, lanes
):
    """The defense matrix's 54 R cells: batched equals scalar at lane
    widths 1, 7 and 128, and no R cell falls back."""
    import repro.sim.batched as batched_module

    assert len(r_matrix_reference) == 54
    monkeypatch.setattr(batched_module, "CHUNK_LANES", lanes)
    clear_fallback_journal()
    assert _r_matrix_payloads("batched") == r_matrix_reference
    assert fallback_journal() == []


# ---------------------------------------------------------------------------
# Honest degradation: fallbacks are journaled, counters add up
# ---------------------------------------------------------------------------


def test_unsupported_config_falls_back_with_journal():
    """Audit mode is the deliberately-unsupported shape: static gate."""
    from repro.perf.counters import COUNTERS

    clear_fallback_journal()
    before = COUNTERS.batched_fallback_trials
    variant = variant_by_name("Train + Hit")
    scalar = _stream(_runner(variant, "scalar",
                             snapshot_trials=True, audit_snapshots=True))
    batched = _stream(_runner(variant, "batched",
                              snapshot_trials=True, audit_snapshots=True))
    assert batched == scalar
    assert COUNTERS.batched_fallback_trials > before
    journal = fallback_journal()
    assert journal, "fallback produced no journal entry"
    cell, reason = journal[-1]
    assert "Train + Hit" in cell
    assert "audit" in reason


def test_runtime_divergence_journals_reason():
    """A shape the engine cannot model fails at run time, not
    statically, and the journaled reason says why: the A defense's
    always-on prediction nests speculation inside a persistent-channel
    squash window.  R cells partition instead and journal nothing."""
    from repro.perf.counters import COUNTERS, PerfCounters

    clear_fallback_journal()
    before = COUNTERS.batched_fallback_trials
    variant = variant_by_name("Train + Test")
    scalar = _stream(_runner(variant, "scalar", defense="A",
                             channel=ChannelType.PERSISTENT))
    batched = _stream(_runner(variant, "batched", defense="A",
                              channel=ChannelType.PERSISTENT))
    assert batched == scalar
    assert COUNTERS.batched_fallback_trials > before
    journal = fallback_journal()
    assert journal, "runtime fallback produced no journal entry"
    _, reason = journal[-1]
    assert "nested speculation" in reason

    clear_fallback_journal()
    before = COUNTERS.snapshot()
    for channel in (ChannelType.TIMING_WINDOW, ChannelType.PERSISTENT):
        _stream(_runner(variant, "batched", defense="R", channel=channel))
    assert fallback_journal() == []
    delta = PerfCounters.delta(before, COUNTERS.snapshot())
    assert delta.get("batched_fallback_trials", 0) == 0
    assert delta.get("batched_partitions", 0) > 0


def test_injected_divergence_falls_back_then_genuine_errors_reraise(
    monkeypatch,
):
    """Per-chunk fallback recovers divergence but not genuine bugs.

    An injected :class:`LaneDivergence` inside the lockstep run must
    replay the chunk on scalar with identical results and a journal
    entry; an error that also reproduces under scalar must escape the
    fallback with its authentic type instead of being swallowed.
    """
    from repro.sim import lockstep

    variant = variant_by_name("Train + Hit")
    reference = _stream(_runner(variant, "scalar"))

    clear_fallback_journal()
    calls = {"n": 0}

    def exploding(self, *args, **kwargs):
        calls["n"] += 1
        raise lockstep.LaneDivergence("injected divergence")

    monkeypatch.setattr(lockstep.LockstepMachine, "run_program", exploding)
    assert _stream(_runner(variant, "batched")) == reference
    assert calls["n"] >= 1
    assert any(
        "injected divergence" in reason for _, reason in fallback_journal()
    )

    def genuine(self, *args, **kwargs):
        raise RuntimeError("genuine simulation bug")

    monkeypatch.setattr(type(variant), "run", genuine)
    with pytest.raises(RuntimeError, match="genuine simulation bug"):
        _stream(_runner(variant, "batched"))


def test_vectorized_cell_journals_nothing():
    from repro.perf.counters import COUNTERS

    clear_fallback_journal()
    before = COUNTERS.snapshot()
    variant = variant_by_name("Train + Hit")
    _stream(_runner(variant, "batched"))
    from repro.perf.counters import PerfCounters

    delta = PerfCounters.delta(before, COUNTERS.snapshot())
    assert fallback_journal() == []
    assert delta.get("batched_fallback_trials", 0) == 0
    assert delta.get("batched_vector_trials", 0) == 12
    assert delta.get("batched_chunks", 0) == 1
    assert delta.get("batched_lanes_retired", 0) > 0


# ---------------------------------------------------------------------------
# Bench-record honesty (repro.perf.observe)
# ---------------------------------------------------------------------------


class TestSweepTrajectoryRecords:
    def _write(self, path, payload, **kwargs):
        from repro.perf.observe import write_sweep_trajectory

        return write_sweep_trajectory(
            "section", payload, path=path, **kwargs
        )

    def test_records_are_stamped(self, tmp_path, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        monkeypatch.delenv("REPRO_BENCH_FORCE", raising=False)
        target = tmp_path / "BENCH_sweep.json"
        document = self._write(target, {"cells_per_s": 10.0}, trials=40)
        assert document["section"]["backend"] == "scalar"
        assert document["section"]["trials"] == 40

    def test_trial_count_is_mandatory(self, tmp_path):
        target = tmp_path / "BENCH_sweep.json"
        with pytest.raises(ValueError, match="trial count"):
            self._write(target, {"cells_per_s": 10.0})
        # trials_simulated in the payload satisfies it.
        document = self._write(
            target, {"cells_per_s": 10.0, "trials_simulated": 8}
        )
        assert document["section"]["trials"] == 8

    def test_regression_overwrite_refused(self, tmp_path, monkeypatch):
        from repro.perf.observe import BenchRegressionError

        monkeypatch.delenv("REPRO_BENCH_FORCE", raising=False)
        target = tmp_path / "BENCH_sweep.json"
        self._write(target, {"cells_per_s": 10.0}, trials=40)
        # Within 20%: allowed.
        self._write(target, {"cells_per_s": 8.5}, trials=40)
        with pytest.raises(BenchRegressionError, match="cells_per_s"):
            self._write(target, {"cells_per_s": 6.0}, trials=40)
        # force records the regression anyway.
        document = self._write(
            target, {"cells_per_s": 6.0}, trials=40, force=True
        )
        assert document["section"]["cells_per_s"] == 6.0

    def test_force_env_and_backend_change_allow_overwrite(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "BENCH_sweep.json"
        self._write(
            target, {"cells_per_s": 10.0}, trials=40, backend="batched"
        )
        # A different backend is a different experiment, not a
        # regression — the overwrite is allowed and re-stamped.
        document = self._write(
            target, {"cells_per_s": 1.0}, trials=40, backend="scalar"
        )
        assert document["section"]["backend"] == "scalar"
        self._write(
            target, {"cells_per_s": 10.0}, trials=40, backend="scalar"
        )
        monkeypatch.setenv("REPRO_BENCH_FORCE", "1")
        document = self._write(
            target, {"cells_per_s": 1.0}, trials=40, backend="scalar"
        )
        assert document["section"]["cells_per_s"] == 1.0

    def test_speedup_keys_are_guarded_too(self, tmp_path, monkeypatch):
        from repro.perf.observe import BenchRegressionError

        monkeypatch.delenv("REPRO_BENCH_FORCE", raising=False)
        target = tmp_path / "BENCH_sweep.json"
        self._write(target, {"speedup_vs_scalar": 40.0}, trials=40)
        with pytest.raises(BenchRegressionError, match="speedup_vs_scalar"):
            self._write(target, {"speedup_vs_scalar": 4.0}, trials=40)


# ---------------------------------------------------------------------------
# Scalar default is untouched
# ---------------------------------------------------------------------------


def test_default_backend_is_scalar_and_unchanged(monkeypatch):
    """No backend anywhere in the config: the historical scalar loop."""
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    variant = variant_by_name("Train + Test")
    default = AttackRunner(variant, AttackConfig(
        n_runs=6, channel=ChannelType.TIMING_WINDOW,
        predictor="lvp", seed=3,
    ))
    assert default.backend.name == "scalar"
    explicit = _runner(variant, "scalar", seed=3)
    assert (default.run_experiment().pvalue
            == explicit.run_experiment().pvalue)
