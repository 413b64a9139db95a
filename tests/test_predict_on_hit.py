"""Tests for the non-load-based VPS extension (paper footnote 2).

"Non load-based VPS is possible, where the attacks can be triggered
without causing cache misses."  With ``predict_on_hit`` the predictor
is consulted on every load, and a mispredicted *hit* still squashes —
so the attacks no longer need any flushing.
"""

from repro.isa.builder import ProgramBuilder
from repro.memory.hierarchy import MemorySystem
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import Core
from repro.vp.lvp import LastValuePredictor

from tests.conftest import deterministic_memory_config

ADDR = 0x30000
LOAD_PC = 0x1000


def make_core(**config_kwargs):
    memory = MemorySystem(deterministic_memory_config())
    predictor = LastValuePredictor(confidence_threshold=4)
    core = Core(memory, predictor, CoreConfig(**config_kwargs))
    return core, memory, predictor


def flushless_train(core, count):
    """Repeated loads at one PC with NO flush: all but the first hit."""
    builder = ProgramBuilder("train", pid=1)
    builder.pin_pc(LOAD_PC)
    with builder.loop(count):
        builder.load(3, imm=ADDR, tag="train-load")
        builder.fence()
    return core.run(builder.build())


def flushless_trigger(core):
    builder = ProgramBuilder("trigger", pid=1)
    builder.rdtsc(9)
    builder.fence()
    builder.pin_pc(LOAD_PC)
    builder.load(3, imm=ADDR, tag="trigger-load")
    builder.dependent_chain(30, dst=30, src=3)
    builder.fence()
    builder.rdtsc(10)
    program = builder.build()
    return program, core.run(program)


class TestLoadBasedVpsIgnoresHits:
    def test_default_config_never_trains_on_hits(self):
        core, _, predictor = make_core()
        flushless_train(core, 6)
        # Only the first (cold) access missed and trained.
        assert predictor.stats.trains == 1


class TestPredictOnHit:
    def test_hits_train_and_predict(self):
        core, _, predictor = make_core(predict_on_hit=True)
        flushless_train(core, 5)
        assert predictor.stats.trains == 5
        program, result = flushless_trigger(core)
        event = result.loads_tagged(program, "trigger-load")[0]
        assert event.l1_hit
        assert event.predicted
        assert event.prediction_correct is True

    def test_mispredicted_hit_squashes(self):
        core, memory, _ = make_core(predict_on_hit=True)
        memory.write_value(1, ADDR, 42)
        flushless_train(core, 5)
        # Change the value architecturally; the line stays cached, so
        # the trigger HITS yet the prediction is stale.
        memory.write_value(1, ADDR, 99)
        program, result = flushless_trigger(core)
        event = result.loads_tagged(program, "trigger-load")[0]
        assert event.l1_hit
        assert event.predicted
        assert event.prediction_correct is False
        assert result.squashes == 1
        assert result.registers[30] == 99 + 30  # architecture correct

    def test_flushless_timing_signal(self):
        # The attack signal without a single cache flush: correct
        # prediction vs misprediction on hit loads.
        correct_core, correct_memory, _ = make_core(predict_on_hit=True)
        correct_memory.write_value(1, ADDR, 42)
        flushless_train(correct_core, 5)
        _, fast = flushless_trigger(correct_core)

        wrong_core, wrong_memory, _ = make_core(predict_on_hit=True)
        wrong_memory.write_value(1, ADDR, 42)
        flushless_train(wrong_core, 5)
        wrong_memory.write_value(1, ADDR, 99)
        _, slow = flushless_trigger(wrong_core)
        assert slow.rdtsc_delta() > fast.rdtsc_delta() + 10
