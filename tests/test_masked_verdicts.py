"""Masked verdicts: a prediction is a lane value, verified lane by lane.

The R defense draws a window offset per trial at each prediction, so
the lanes of one lockstep batch predict different values; a load of an
unwritten line returns a different value in every lane, too.  The
engine keeps one batch either way: verification yields a per-lane mask,
the lanes that predicted right keep the early value-ready cycle, and
only the others take the squash stall and run the transient window.

These properties pin that to the scalar reference on generated defense
stacks, with one lockstep pass per hypothesis per chunk, and pin the
rules around it: lanes outside a window never count toward the issue
guards; under D a verification that straddles a consumer's issue is a
lane set, and a load on it defers its fill per lane; a line only some
lanes filled hits in exactly those lanes; and a lane-private fill that
would evict, or post-split replicas that disagree on whether to
predict, diverge with a journaled reason.
"""

import pytest

np = pytest.importorskip("numpy")

from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.cli import parse_defense  # noqa: E402
from repro.core.channels import ChannelType  # noqa: E402
from repro.core.variants import ALL_VARIANTS, variant_by_name  # noqa: E402
from repro.harness.checkpoint import serialize_result  # noqa: E402
from repro.harness.experiment import run_cell  # noqa: E402
from repro.isa.builder import ProgramBuilder  # noqa: E402
from repro.isa.instructions import AluOp  # noqa: E402
from repro.memory.hierarchy import MemoryConfig  # noqa: E402
from repro.pipeline.config import CoreConfig  # noqa: E402
from repro.sim import clear_fallback_journal, fallback_journal  # noqa: E402
from repro.sim import lockstep  # noqa: E402
from repro.sim._lanes import _lane_mask  # noqa: E402
from repro.sim._pass import _Col, _Pass  # noqa: E402
from repro.vp.nopred import NoPredictor  # noqa: E402
from tests.test_lockstep_runs import _probe, _stream  # noqa: E402
from tests.test_sim_backend import counting_builds  # noqa: E402

TIMING = ChannelType.TIMING_WINDOW
PERSISTENT = ChannelType.PERSISTENT

_N_RUNS = 8


def _payload(case, backend, **overrides):
    return serialize_result(run_cell(
        case["variant"], case["channel"], case["predictor"], _N_RUNS,
        case["seed"], defense=parse_defense(case["spec"]), backend=backend,
        **overrides,
    ))


@st.composite
def _cases(draw):
    """A Table II cell under ``R[w]``, optionally stacked in any order
    with an A defense and with D or InvisiSpec."""
    variant = draw(st.sampled_from(ALL_VARIANTS))
    channel = draw(st.sampled_from([
        channel for channel in (TIMING, PERSISTENT)
        if channel in variant.supported_channels
    ]))
    parts = [f"R[{draw(st.integers(1, 11))}]"]
    parts += [
        part for part in (
            draw(st.sampled_from((None, "A[history]", "A[fixed]"))),
            draw(st.sampled_from((None, "D", "invisispec"))),
        )
        if part is not None
    ]
    return dict(
        variant=variant, channel=channel,
        spec="+".join(draw(st.permutations(parts))),
        predictor=draw(st.sampled_from(("lvp", "vtage"))),
        seed=draw(st.integers(0, 2 ** 16)),
        lanes=draw(st.sampled_from((1, 7, 128))),
    )


def _case(name, channel, spec, predictor="lvp", seed=0, lanes=128):
    return dict(
        variant=variant_by_name(name), channel=channel, spec=spec,
        predictor=predictor, seed=seed, lanes=lanes,
    )


@settings(max_examples=16, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_cases())
# The persistent encode load: in some lanes only, at lane-varying
# addresses, under D (no fill) and under a nested A prediction; it fills
# lines only those lanes hold, which the probe reads back.
@example(case=_case("Train + Test", PERSISTENT, "R[3]", lanes=7))
@example(case=_case("Test + Hit", PERSISTENT, "A[fixed]+R[5]+D", "vtage"))
@example(case=_case("Fill Up", PERSISTENT, "R[9]+A[history]+invisispec"))
@example(case=_case("Train + Test", PERSISTENT, "R[8]"))
@example(case=_case("Test + Hit", PERSISTENT, "R[8]"))
@example(case=_case("Fill Up", PERSISTENT, "R[8]"))
# A lane-valued prediction under an A wrapper that forwards it.
@example(case=_case("Train + Hit", TIMING, "R[11]+A[history]", seed=5))
def test_masked_verdicts_match_scalar(case):
    """Batched equals scalar byte for byte, with an empty journal and
    one lockstep pass per hypothesis per chunk."""
    import repro.sim.batched as batched_module

    scalar = _payload(case, "scalar")
    clear_fallback_journal()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(batched_module, "CHUNK_LANES", case["lanes"])
        builds = counting_builds(patch)
        batched = _payload(case, "batched")
    assert batched == scalar
    assert fallback_journal() == []
    chunks = -(-_N_RUNS // case["lanes"])
    assert len(builds) == 2 * chunks


def test_lanes_outside_the_window_never_count_toward_the_guards():
    """A lane that predicted right never ran the squash window.  Its
    rows there are placeholders equal to its main-pass rows, so counting
    them would issue every MUL of this run twice per cycle on the
    default one-MUL-port core and trip the port guard."""
    variant = _probe(24, [(AluOp.MUL, 3)])
    scalar = _stream(variant, "scalar", TIMING, "R", None, None)
    clear_fallback_journal()
    batched = _stream(variant, "batched", TIMING, "R", None, None)
    assert batched == scalar
    assert fallback_journal() == []


def test_d_straddle_is_a_lane_set():
    """Under R+D the trigger's verdict differs per lane, so its
    dependent chain issues before the verification in the lanes that
    predicted right and after it in the others.  That straddle makes
    the trigger a speculation source in some lanes only: the timing
    cells, whose chain feeds no load, run on without diverging."""
    for name in ("Train + Test", "Train + Hit", "Test + Hit"):
        clear_fallback_journal()
        case = _case(name, TIMING, "R[3]+D")
        assert _payload(case, "batched") == _payload(case, "scalar")
        assert fallback_journal() == []


def test_load_on_a_partial_speculation_source_defers_per_lane():
    """A load whose D-defense source is unverified in some lanes only
    defers its fill there and fills now in the others: until the source
    verifies, a lookup of that line hits in the fill-now lanes alone.
    The deferred fill lands per lane, in each lane whose access is past
    the verify, and once it is past it in every lane, so is the line."""
    machine = lockstep.LockstepMachine(
        core_config=CoreConfig(delay_speculative_fills=True),
        memory_config=MemoryConfig(),
        predictor=NoPredictor(),
        lane_seeds=[11, 12, 13],
        shared_region=(1 << 20, 4096),
    )
    source = _Col()
    source.seq = 0
    source.C = np.array([50, 50, 50], dtype=np.int64)
    issue = np.array([10, 60, 10], dtype=np.int64)
    live = np.array([True, False, True])
    # Column 0 retires as it completes, like a load at the ROB head.
    load = _Pass(machine, ProgramBuilder(pid=1, base_pc=0x400).load(
        3, imm=0x8000,
    ).build())
    load._load_column(0, _Col(), 0x8000, issue, source, live)
    memory = machine.memory

    def hits():
        return memory.walk(1, 0x8000, True, False)[1]

    assert hits().tolist() == [False, True, False]
    memory.apply_fill_events(np.array([55, 55, 40], dtype=np.int64))
    assert hits().tolist() == [True, True, False]
    memory.apply_fill_events(np.array([55, 55, 55], dtype=np.int64))
    assert hits() is True
    # The same source in every lane defers the fill in every lane.
    load._load_column(0, _Col(), 0x9000, issue, source, True)
    assert memory.walk(1, 0x9000, True, False)[1] is False


def test_lane_private_line_hits_in_exactly_its_lanes():
    """A line only some lanes filled (the persistent encode load in a
    partial squash window, at each lane's own address) hits when read
    back in exactly those lanes, and only the lanes that miss draw L2
    or DRAM latency: every lane's latencies equal one scalar memory
    system's under that lane's seed, access for access."""
    from dataclasses import replace

    from repro.core.attack import attack_dram_config
    from repro.memory.hierarchy import MemorySystem

    seeds = [3, 5, 7, 11, 13]
    region = (1 << 20, 1 << 16)
    config = MemoryConfig(dram=attack_dram_config())
    machine = lockstep.LockstepMachine(
        core_config=CoreConfig(), memory_config=replace(config, seed=3),
        predictor=NoPredictor(), lane_seeds=seeds, shared_region=region,
    )
    scalars = [MemorySystem(replace(config, seed=seed)) for seed in seeds]
    for memory in scalars:
        memory.add_shared_region(*region)
    base, line_a, line_b, line_c = 1 << 20, 0, 5 * 512, 9 * 512
    window = np.array([True, True, True, True, False])
    transient = np.array(
        [base + line_a, base + line_b, base + line_a, base + line_b, 0],
        dtype=np.uint64,
    )
    machine.memory.walk(1, transient, window, window)
    for lane, memory in enumerate(scalars):
        if window[lane]:
            memory.load(1, int(transient[lane]))
    for address in (base + line_a, base + line_c, base + line_b):
        latency, hit, _ = machine.memory.walk(1, address, True, True)
        expected = [memory.load(1, address) for memory in scalars]
        assert np.broadcast_to(latency, (len(seeds),)).tolist() == [
            result.latency for result in expected
        ]
        assert _lane_mask(hit, len(seeds)).tolist() == [
            result.l1_hit for result in expected
        ]
    assert machine.memory.walk(1, base + line_a, True, True)[1] is True


def test_a_partial_consult_draws_only_in_its_lanes():
    """A lane that hits in L1, or runs no squash window, never looks the
    load up, so its R stream must not move: the shared chain draws in
    the consulting lanes alone."""
    from repro.core.attack import make_predictor
    from repro.vp.base import AccessKey

    predictor = parse_defense("A[fixed]+R[5]").wrap_predictor(
        make_predictor("lvp", 2)
    )
    machine = lockstep.LockstepMachine(
        core_config=CoreConfig(), memory_config=MemoryConfig(),
        predictor=predictor, lane_seeds=[1, 2, 3, 4],
        shared_region=(1 << 20, 4096),
    )
    (stream,) = machine._lane_streams
    before = [rng.getstate() for rng in stream.rngs]
    lanes = np.array([True, False, True, False])
    prediction = machine._consult_predictor(
        AccessKey(pc=0x400, addr=0x8000, pid=1),
        np.zeros(4, dtype=np.int64), lanes,
    )
    assert prediction is not None
    moved = [
        rng.getstate() != state for rng, state in zip(stream.rngs, before)
    ]
    assert moved == lanes.tolist()


def test_lane_private_fill_that_would_evict_diverges():
    """With a one-set, one-way L1 the persistent encode load's
    lane-private fill would evict the trigger's line in the squashing
    lanes only: the chunk falls back with that reason journaled, and
    its results equal scalar."""
    from repro.core.attack import attack_dram_config

    memory = MemoryConfig(
        dram=attack_dram_config(), l1_size=64, l1_ways=1,
    )
    case = _case("Train + Test", PERSISTENT, "R[3]")
    scalar = _payload(case, "scalar", memory_config=memory)
    clear_fallback_journal()
    assert _payload(case, "batched", memory_config=memory) == scalar
    assert {reason for _, reason in fallback_journal()} == {
        "LaneDivergence: a lane-private fill would evict from L1D"
    }


def test_post_split_disagreement_on_predicting_diverges(monkeypatch):
    """Post-split replicas that disagree on whether to predict leave a
    load with no one verdict: a journaled divergence, and the chunk's
    results equal scalar.  Replica 0 is planted as a no-predictor here,
    so the first consult that the others answer disagrees."""
    init = lockstep.LockstepMachine.__init__

    def split_at_build(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._begin_split()
        self._split[0] = NoPredictor()

    case = _case("Train + Hit", TIMING, "D")
    scalar = _payload(case, "scalar")
    monkeypatch.setattr(lockstep.LockstepMachine, "__init__", split_at_build)
    clear_fallback_journal()
    assert _payload(case, "batched") == scalar
    assert {reason for _, reason in fallback_journal()} == {
        "LaneDivergence: post-split replicas disagree on whether to predict"
    }


def test_lane_valued_predictions_train_the_shared_chain(monkeypatch):
    """R's lane-valued predictions train the one shared chain: the R
    wrapper drops its own prediction before training its inner
    predictor, and an A wrapper above it only counts and forwards it.
    No chain splits, and no ``_record_train`` sees a lane vector."""
    from repro.vp.base import ValuePredictor

    stand_ins, splits = [], []
    stand_in = lockstep.LockstepMachine._stand_in
    record_train = ValuePredictor._record_train

    def counting_stand_in(self, prediction):
        stand_ins.append(prediction.source)
        return stand_in(self, prediction)

    def scalar_record_train(self, actual_value, prediction):
        assert not isinstance(actual_value, np.ndarray)
        assert prediction is None or not isinstance(
            prediction.value, np.ndarray
        )
        record_train(self, actual_value, prediction)

    monkeypatch.setattr(lockstep.LockstepMachine, "_stand_in",
                        counting_stand_in)
    monkeypatch.setattr(lockstep.LockstepMachine, "_begin_split",
                        lambda self: splits.append(self))
    monkeypatch.setattr(ValuePredictor, "_record_train", scalar_record_train)
    for spec in ("R[3]", "R[11]+A[history]"):
        case = _case("Train + Hit", TIMING, spec, seed=5)
        clear_fallback_journal()
        assert _payload(case, "batched") == _payload(case, "scalar")
        assert fallback_journal() == []
    assert splits == []
    assert {source.split("(")[0] for source in stand_ins} == {"R[3]", "R[11]"}
