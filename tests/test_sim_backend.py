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
from repro.core.variants import (
    ALL_VARIANTS,
    VALUE_RECEIVER_KNOWN,
    VALUE_SENDER_KNOWN,
    TrainTestAttack,
    variant_by_name,
)
from repro.errors import BackendUnavailableError, SimBackendError
from repro.harness.runner import SequentialPolicy
from repro.isa.builder import ProgramBuilder
from repro.sim import (
    BACKEND_ENV,
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    clear_fallback_journal,
    fallback_journal,
    get_backend,
    resolve_backend_name,
)
from repro.workloads import gadgets

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


def counting_builds(patch):
    """Count ``LockstepMachine`` constructions, one per lockstep pass,
    under a ``MonkeyPatch``; returns the growing list of builds."""
    from repro.sim import lockstep

    builds = []
    init = lockstep.LockstepMachine.__init__

    def counting(self, *args, **kwargs):
        builds.append(None)
        init(self, *args, **kwargs)

    patch.setattr(lockstep.LockstepMachine, "__init__", counting)
    return builds


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
        assert BACKEND_NAMES == ("batched", "scalar")
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
        # The retired lane-pool backend is refused like any other typo.
        with pytest.raises(SimBackendError, match="batched, scalar$"):
            resolve_backend_name("pool")
        monkeypatch.setenv(BACKEND_ENV, "pool")
        with pytest.raises(SimBackendError, match="batched, scalar$"):
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

    Byte-identical streams whether the cell vectorizes (every cell here
    does: R's predictions are lane values, and A's nested predictions
    before a FENCE are masked trainings) or would take the journaled
    runtime fallback: identity is the contract either way.
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


@pytest.mark.parametrize("sequential, n_runs", [
    pytest.param(None, 6, id="fixed"),
    pytest.param(SequentialPolicy(), 16, id="sequential"),
])
def test_table3_sweep_verdicts_identical(tmp_path, sequential, n_runs):
    """Acceptance: the full 18-cell Table III sweep, both backends.

    The group-sequential form streams every cell through interim looks
    of a few trials each, so it pins narrow batched dispatches too.
    """
    from repro._version import __version__
    from repro.harness.checkpoint import CheckpointStore
    from repro.harness.parallel import run_cells, sweep_specs
    from repro.harness.runner import ExecutionPolicy

    specs = sweep_specs(["table3"], n_runs=n_runs, seed=0)
    assert len(specs) == 18

    def sweep(backend):
        store = CheckpointStore.open(
            str(tmp_path / backend),
            {"version": __version__, "backend_test": True}, resume=False,
        )
        policy = ExecutionPolicy(backend=backend, sequential=sequential)
        run_cells(specs, store, policy, workers=1)
        return {spec.cell_id: store.load(spec.cell_id) for spec in specs}

    assert sweep("batched") == sweep("scalar")


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

#: The defense specs of the Section VI-B defense matrix.
_MATRIX_SPECS = (
    "R[3]", "R[8]", "A[history]", "A[fixed]", "D", "invisispec",
    "A[fixed]+D", "A[history]+D", "R[3]+D", "invisispec+D",
)

#: Its R-type specs.
_R_MATRIX_SPECS = ("R[3]", "R[8]", "R[3]+D")

#: Its A-type specs.
_A_MATRIX_SPECS = ("A[history]", "A[fixed]", "A[fixed]+D", "A[history]+D")


def _matrix_cases(specs=_MATRIX_SPECS, channels=None):
    """The matrix's cells: variant/channel x defense spec x predictor."""
    for variant in ALL_VARIANTS:
        supported = [ChannelType.TIMING_WINDOW]
        if ChannelType.PERSISTENT in variant.supported_channels:
            supported.append(ChannelType.PERSISTENT)
        for channel in supported:
            if channels is not None and channel not in channels:
                continue
            for spec in specs:
                for predictor in ("lvp", "vtage"):
                    yield variant, channel, spec, predictor


def _matrix_payloads(backend, cases):
    """Payloads of defense-matrix cells at a small n_runs."""
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
        for variant, channel, spec, predictor in cases
    }


def _r_matrix_payloads(backend):
    """Payloads of the defense matrix's R cells."""
    return _matrix_payloads(backend, _matrix_cases(_R_MATRIX_SPECS))


def _a_persistent_payloads(backend):
    """Payloads of the defense matrix's A cells on the persistent
    channel, whose squash windows hold a nested prediction."""
    return _matrix_payloads(backend, _matrix_cases(
        _A_MATRIX_SPECS, channels=(ChannelType.PERSISTENT,),
    ))


@pytest.fixture(scope="module")
def r_matrix_reference():
    return _r_matrix_payloads("scalar")


@pytest.fixture(scope="module")
def a_persistent_reference():
    return _a_persistent_payloads("scalar")


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


@pytest.mark.parametrize("lanes", [1, 7, 128])
def test_a_persistent_cells_identical_at_any_lane_width(
    monkeypatch, a_persistent_reference, lanes
):
    """The defense matrix's 24 A cells on the persistent channel:
    batched equals scalar at lane widths 1, 7 and 128, and none falls
    back.  Their squash windows predict the encode load again (a nested
    prediction before a FENCE), and Test + Hit under A[fixed] predicts
    a probe load whose value differs per lane."""
    import repro.sim.batched as batched_module

    assert len(a_persistent_reference) == 24
    monkeypatch.setattr(batched_module, "CHUNK_LANES", lanes)
    clear_fallback_journal()
    assert _a_persistent_payloads("batched") == a_persistent_reference
    assert fallback_journal() == []


# ---------------------------------------------------------------------------
# Honest degradation: fallbacks are journaled, counters add up
# ---------------------------------------------------------------------------


def test_unsupported_config_falls_back_with_journal():
    """A non-LRU replacement policy is a static-gate shape: it draws
    per-trial randomness into cache structure, so the cell runs on
    scalar and the journaled reason names the policy."""
    from repro.core.attack import attack_dram_config
    from repro.memory.hierarchy import MemoryConfig
    from repro.perf.counters import COUNTERS

    def memory_config():
        return MemoryConfig(
            dram=attack_dram_config(), replacement_policy="random"
        )

    clear_fallback_journal()
    before = COUNTERS.batched_fallback_trials
    variant = variant_by_name("Train + Hit")
    scalar = _stream(_runner(variant, "scalar",
                             memory_config=memory_config()))
    batched = _stream(_runner(variant, "batched",
                              memory_config=memory_config()))
    assert batched == scalar
    assert COUNTERS.batched_fallback_trials > before
    journal = fallback_journal()
    assert journal, "fallback produced no journal entry"
    cell, reason = journal[-1]
    assert "Train + Hit" in cell
    assert "replacement policy 'random'" in reason


class _NestedConsumer(TrainTestAttack):
    """Train + Test whose persistent trigger reads the encode load's
    value before the FENCE, so a nested prediction would reach a
    younger op: a shape the engine does not model."""

    name = "Nested Consumer"

    def run_measured(self, env, mapped):
        if env.channel is not ChannelType.PERSISTENT:
            return super().run_measured(env, mapped)
        layout = env.layout
        builder = ProgramBuilder(
            "nested-trigger", pid=layout.receiver_pid,
            base_pc=layout.receiver_base_pc,
        )
        for line in (VALUE_SENDER_KNOWN, VALUE_RECEIVER_KNOWN):
            builder.flush(imm=layout.probe_line_addr(line))
        builder.flush(imm=layout.receiver_known_addr)
        builder.fence()
        builder.pin_pc(layout.collide_pc)
        builder.load(gadgets.REG_LOADED, imm=layout.receiver_known_addr)
        builder.shl(gadgets.REG_SHIFTED, gadgets.REG_LOADED,
                    layout.probe_stride_shift)
        builder.load(gadgets.REG_ENCODED, base=gadgets.REG_SHIFTED,
                     imm=layout.probe_base)
        builder.add(gadgets.REG_CHAIN, gadgets.REG_ENCODED, imm=1)
        builder.fence()
        env.core.run(builder.build())
        return self._probe_line_latency(env, VALUE_SENDER_KNOWN)


def test_runtime_divergence_journals_reason():
    """A shape the engine cannot model fails at run time, not
    statically, and the journaled reason says why.

    Under the A defense the persistent trigger's squash window predicts
    its encode load again.  With a FENCE next, that nested prediction
    is only a masked training and the cell vectorizes; when a younger
    op reads its value first, the chunk falls back."""
    from repro.perf.counters import COUNTERS

    variant = variant_by_name("Train + Test")
    clear_fallback_journal()
    scalar = _stream(_runner(variant, "scalar", defense="A",
                             channel=ChannelType.PERSISTENT))
    batched = _stream(_runner(variant, "batched", defense="A",
                              channel=ChannelType.PERSISTENT))
    assert batched == scalar
    assert fallback_journal() == []

    nested = _NestedConsumer()
    before = COUNTERS.batched_fallback_trials
    scalar = _stream(_runner(nested, "scalar", defense="A",
                             channel=ChannelType.PERSISTENT))
    batched = _stream(_runner(nested, "batched", defense="A",
                              channel=ChannelType.PERSISTENT))
    assert batched == scalar
    assert COUNTERS.batched_fallback_trials > before
    journal = fallback_journal()
    assert journal, "runtime fallback produced no journal entry"
    assert {reason for _, reason in journal} == {
        "LaneDivergence: nested speculation in a squash window"
    }


def test_r_cells_run_in_one_pass():
    """R cells run each hypothesis's chunk as one lockstep pass, on
    both channels.  A lane that predicts right skips the squash window;
    on the persistent channel the window's encode load runs in the
    other lanes only, at lane-varying addresses, and fills lines that
    those lanes alone hold, so nothing regroups the lanes."""
    variant = variant_by_name("Train + Test")
    for channel in (ChannelType.TIMING_WINDOW, ChannelType.PERSISTENT):
        scalar = _stream(_runner(variant, "scalar", defense="R",
                                 channel=channel))
        clear_fallback_journal()
        with pytest.MonkeyPatch.context() as patch:
            builds = counting_builds(patch)
            batched = _stream(_runner(variant, "batched", defense="R",
                                      channel=channel))
        assert batched == scalar
        assert fallback_journal() == []
        assert len(builds) == 2, channel


def test_defense_matrix_fallbacks_are_pinned():
    """The benchmark's 180 defended cells vectorize outright: nothing
    is journaled, and every hypothesis of every chunk is one lockstep
    pass — 360 machines for the 180 one-chunk cells at n_runs=10, R
    cells included.

    The scalar replay keeps results identical, so a guard the engine
    newly trips would otherwise show only as lost speed.
    """
    from repro.cli import parse_defense
    from repro.harness.experiment import run_cell

    cells = list(_matrix_cases())
    assert len(cells) == 180
    journals = {}
    passes = {}
    with pytest.MonkeyPatch.context() as patch:
        builds = counting_builds(patch)
        for variant, channel, spec, predictor in cells:
            cell = f"{variant.name}/{channel.value}/{spec}/{predictor}"
            clear_fallback_journal()
            before = len(builds)
            run_cell(variant, channel, predictor, 10, 0,
                     defense=parse_defense(spec), backend="batched")
            if fallback_journal():
                journals[cell] = fallback_journal()
            passes[cell] = len(builds) - before
    assert journals == {}
    assert len(builds) == 360
    assert set(passes.values()) == {2}, passes


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
