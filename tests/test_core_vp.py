"""Pipeline tests: value-prediction integration, squash, and channels.

These exercise the exact mechanisms the attacks rely on (Figure 1's
VPS + Prediction Verification path).
"""

from repro.isa.builder import ProgramBuilder
from repro.memory.hierarchy import MemorySystem
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import Core
from repro.pipeline.trace import LoadEvent
from repro.vp.lvp import LastValuePredictor

from tests.conftest import deterministic_memory_config

ADDR = 0x10000
OTHER = 0x20000
LOAD_PC = 0x1000
PROBE = 0x40000


def make_core(config=None, confidence=4):
    memory = MemorySystem(deterministic_memory_config())
    predictor = LastValuePredictor(confidence_threshold=confidence)
    return Core(memory, predictor, config or CoreConfig()), memory, predictor


def train(core, count=4, addr=ADDR, pid=1):
    builder = ProgramBuilder("train", pid=pid)
    builder.pin_pc(LOAD_PC - 8)
    with builder.loop(count):
        builder.flush(imm=addr)
        builder.fence()
        builder.load(3, imm=addr, tag="train-load")
        builder.fence()
    return core.run(builder.build())


def timed_trigger(core, addr=ADDR, chain=30, pid=1):
    builder = ProgramBuilder("trigger", pid=pid)
    builder.flush(imm=addr)
    builder.fence()
    builder.rdtsc(9)
    builder.fence()
    builder.pin_pc(LOAD_PC)
    builder.load(3, imm=addr, tag="trigger-load")
    builder.dependent_chain(chain, dst=30, src=3)
    builder.fence()
    builder.rdtsc(10)
    return core.run(builder.build())


def trigger_event(result) -> LoadEvent:
    events = [e for e in result.load_events if e.pc == LOAD_PC and not e.l1_hit]
    assert len(events) == 1
    return events[0]


class TestPredictionFlow:
    def test_training_through_the_pipeline(self):
        core, memory, predictor = make_core()
        train(core, count=4)
        # 4 miss loads trained the entry to the threshold.
        assert predictor.stats.trains == 4
        result = timed_trigger(core)
        event = trigger_event(result)
        assert event.predicted
        assert event.prediction_correct is True

    def test_hit_loads_do_not_engage_vps(self):
        core, memory, predictor = make_core()
        builder = ProgramBuilder(pid=1)
        builder.load(1, imm=ADDR)   # miss: trains
        builder.fence()
        builder.load(2, imm=ADDR)   # hit: must not train
        core.run(builder.build())
        assert predictor.stats.trains == 1
        assert predictor.stats.lookups == 1

    def test_correct_prediction_faster_than_no_prediction(self):
        trained, _, _ = make_core()
        train(trained, count=4)
        fast = timed_trigger(trained).rdtsc_delta()

        untrained, _, _ = make_core()
        train(untrained, count=2)  # below threshold
        slow = timed_trigger(untrained).rdtsc_delta()
        assert fast < slow - 15

    def test_misprediction_slowest(self):
        correct_core, memory, _ = make_core()
        memory.write_value(1, ADDR, 42)
        train(correct_core, count=4)
        fast = timed_trigger(correct_core).rdtsc_delta()

        wrong_core, wrong_memory, _ = make_core()
        wrong_memory.write_value(1, ADDR, 42)
        train(wrong_core, count=4)
        wrong_memory.write_value(1, ADDR, 99)  # change behind the VPS
        slow = timed_trigger(wrong_core).rdtsc_delta()
        assert slow > fast + 20

    def test_misprediction_squashes_and_recovers(self):
        core, memory, _ = make_core()
        memory.write_value(1, ADDR, 42)
        train(core, count=4)
        memory.write_value(1, ADDR, 99)
        result = timed_trigger(core)
        event = trigger_event(result)
        assert event.prediction_correct is False
        assert event.squashed_dependents > 0
        assert result.squashes == 1
        # Architectural correctness: the chain used the REAL value.
        # chain = 99 + 1 + (chain_length - 1).
        assert result.registers[30] == 99 + 30

    def test_one_conflicting_access_causes_no_prediction(self):
        # The Train + Test "invalidate" modify step.
        core, memory, _ = make_core()
        memory.write_value(1, ADDR, 42)
        train(core, count=4)
        memory.write_value(1, ADDR, 99)
        train(core, count=1)     # resets confidence
        memory.write_value(1, ADDR, 13)
        result = timed_trigger(core)
        event = trigger_event(result)
        assert not event.predicted

    def test_cross_process_collision_pc_indexed(self):
        # Sender trains at LOAD_PC; receiver (other pid, other address)
        # triggers at the same PC and receives the sender's value.
        core, memory, _ = make_core()
        memory.write_value(1, ADDR, 42)
        train(core, count=4, pid=1, addr=ADDR)
        memory.write_value(2, OTHER, 7)
        result = timed_trigger(core, addr=OTHER, pid=2)
        event = trigger_event(result)
        assert event.predicted
        assert event.prediction_correct is False  # 42 != 7
        assert result.registers[30] == 7 + 30     # architecture correct


def encode_trigger(core, addr, pid=2, stride_shift=9):
    builder = ProgramBuilder("encode", pid=pid)
    for line in (42, 7):
        builder.flush(imm=PROBE + line * 512)
    builder.flush(imm=addr)
    builder.fence()
    builder.pin_pc(LOAD_PC)
    builder.load(3, imm=addr, tag="trigger-load")
    builder.shl(4, 3, stride_shift)
    builder.load(6, base=4, imm=PROBE, tag="encode-load")
    builder.fence()
    return core.run(builder.build())


class TestPersistentChannel:
    def test_transient_fill_survives_squash(self):
        # The Spectre-style leak: a squashed dependent load's cache
        # fill persists (Figure 4's encode step).
        core, memory, _ = make_core()
        memory.write_value(1, ADDR, 42)
        train(core, count=4, pid=1)
        memory.write_value(2, OTHER, 7)
        encode_trigger(core, OTHER, pid=2)
        # The line for the PREDICTED (sender-trained) value 42 is hot,
        # even though pid 2's architectural value was 7.
        assert memory.is_cached(2, PROBE + 42 * 512)
        assert memory.is_cached(2, PROBE + 7 * 512)  # replay fill

    def test_no_vp_leaves_only_architectural_fill(self):
        memory = MemorySystem(deterministic_memory_config())
        core = Core(memory, None, CoreConfig())
        memory.write_value(2, OTHER, 7)
        encode_trigger(core, OTHER, pid=2)
        assert memory.is_cached(2, PROBE + 7 * 512)
        assert not memory.is_cached(2, PROBE + 42 * 512)


class TestDelayedSideEffects:
    def test_dtype_drops_squashed_fill(self):
        core, memory, _ = make_core(
            CoreConfig(delay_speculative_fills=True)
        )
        memory.write_value(1, ADDR, 42)
        train(core, count=4, pid=1)
        memory.write_value(2, OTHER, 7)
        encode_trigger(core, OTHER, pid=2)
        # The transient fill for the predicted value was buffered and
        # dropped at squash; only the replayed (architectural) fill lands.
        assert not memory.is_cached(2, PROBE + 42 * 512)
        assert memory.is_cached(2, PROBE + 7 * 512)

    def test_dtype_releases_fill_on_correct_prediction(self):
        core, memory, _ = make_core(
            CoreConfig(delay_speculative_fills=True)
        )
        memory.write_value(2, OTHER, 7)
        train(core, count=4, pid=2, addr=OTHER)
        encode_trigger(core, OTHER, pid=2)
        assert memory.is_cached(2, PROBE + 7 * 512)

    def test_dtype_does_not_change_architecture(self):
        core, memory, _ = make_core(
            CoreConfig(delay_speculative_fills=True)
        )
        memory.write_value(1, ADDR, 42)
        train(core, count=4, pid=1)
        memory.write_value(2, OTHER, 7)
        result = encode_trigger(core, OTHER, pid=2)
        assert result.registers[3] == 7

    def test_invisispec_defers_all_fills_to_commit(self):
        core, memory, _ = make_core(CoreConfig(invisispec=True))
        memory.write_value(1, ADDR, 42)
        train(core, count=4, pid=1)
        memory.write_value(2, OTHER, 7)
        encode_trigger(core, OTHER, pid=2)
        # The squashed transient encode never commits -> no fill.
        assert not memory.is_cached(2, PROBE + 42 * 512)
        # The replayed encode commits -> its fill appears.
        assert memory.is_cached(2, PROBE + 7 * 512)


class TestValuePredictionDisable:
    def test_config_flag_disables_prediction(self):
        memory = MemorySystem(deterministic_memory_config())
        predictor = LastValuePredictor(confidence_threshold=2)
        core = Core(memory, predictor, CoreConfig(value_prediction=False))
        train(core, count=4)
        result = timed_trigger(core)
        assert not trigger_event(result).predicted
        assert predictor.stats.predictions == 0
