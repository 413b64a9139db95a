"""Masked verdicts: a prediction is a lane value, verified lane by lane.

The R defense draws a window offset per trial at each prediction, so
the lanes of one lockstep batch predict different values; a load of an
unwritten line returns a different value in every lane, too.  The
engine keeps one batch either way: verification yields a per-lane mask,
the lanes that predicted right keep the early value-ready cycle, and
only the others take the squash stall and run the transient window.

These properties pin that to the scalar reference on generated defense
stacks, and pin the rules around it: lanes outside a window never count
toward the issue guards, and under D a verification that straddles a
consumer's issue is a lane set that only a load partitions on.
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
from repro.isa.instructions import AluOp  # noqa: E402
from repro.memory.hierarchy import MemoryConfig  # noqa: E402
from repro.pipeline.config import CoreConfig  # noqa: E402
from repro.sim import clear_fallback_journal, fallback_journal  # noqa: E402
from repro.sim import lockstep  # noqa: E402
from repro.vp.nopred import NoPredictor  # noqa: E402
from tests.test_lockstep_runs import _probe, _stream  # noqa: E402

TIMING = ChannelType.TIMING_WINDOW
PERSISTENT = ChannelType.PERSISTENT

_N_RUNS = 8


def _payload(case, backend):
    return serialize_result(run_cell(
        case["variant"], case["channel"], case["predictor"], _N_RUNS,
        case["seed"], defense=parse_defense(case["spec"]), backend=backend,
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
# addresses, under D (no fill) and under a nested A prediction.
@example(case=_case("Train + Test", PERSISTENT, "R[3]", lanes=7))
@example(case=_case("Test + Hit", PERSISTENT, "A[fixed]+R[5]+D", "vtage"))
@example(case=_case("Fill Up", PERSISTENT, "R[9]+A[history]+invisispec"))
# A lane-valued prediction under an A wrapper that forwards it.
@example(case=_case("Train + Hit", TIMING, "R[11]+A[history]", seed=5))
def test_masked_verdicts_match_scalar(case):
    """Batched equals scalar byte for byte, with an empty journal."""
    import repro.sim.batched as batched_module

    scalar = _payload(case, "scalar")
    clear_fallback_journal()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(batched_module, "CHUNK_LANES", case["lanes"])
        batched = _payload(case, "batched")
    assert batched == scalar
    assert fallback_journal() == []


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


def test_d_straddle_is_a_lane_set_only_a_load_partitions_on():
    """Under R+D the trigger's verdict differs per lane, so its
    dependent chain issues before the verification in the lanes that
    predicted right and after it in the others.  That straddle makes
    the trigger a speculation source in some lanes only: the timing
    cells, whose chain feeds no load, neither diverge nor partition."""
    from repro.perf.counters import COUNTERS

    for name in ("Train + Test", "Train + Hit", "Test + Hit"):
        clear_fallback_journal()
        before = COUNTERS.batched_partitions
        case = _case(name, TIMING, "R[3]+D")
        assert _payload(case, "batched") == _payload(case, "scalar")
        assert fallback_journal() == []
        assert COUNTERS.batched_partitions == before


def test_load_on_a_partial_speculation_source_partitions():
    """A load whose D-defense source is unverified in some lanes only
    would defer its fill there and fill now elsewhere, so it partitions
    the batch on that lane set (and nothing else does)."""
    machine = lockstep.LockstepMachine(
        core_config=CoreConfig(delay_speculative_fills=True),
        memory_config=MemoryConfig(),
        predictor=NoPredictor(),
        lane_seeds=[11, 12, 13],
        shared_region=(1 << 20, 4096),
    )
    source = lockstep._Col()
    source.seq = 0
    source.C = np.array([50, 50, 50], dtype=np.int64)
    issue = np.array([10, 60, 10], dtype=np.int64)
    live = np.array([True, False, True])
    with pytest.raises(lockstep.LanePartition) as raised:
        machine._load_column(
            lockstep._Col(), 1, 0x400, 0x8000, issue, lambda c: c,
            source, live,
        )
    assert raised.value.keys == [True, False, True]
    # The same source in every lane defers the fill and runs on.
    machine._load_column(
        lockstep._Col(), 1, 0x400, 0x8000, issue, lambda c: c,
        source, True,
    )


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
