"""Tests for specific side claims made in the paper's prose.

* Footnote 4: in Train + Test, "there can be a correct prediction also
  if the indices are the same and the secret data and known data
  happen to be the same" — an accidental value collision silences the
  attack's signal for that trial.
* Section IV-D1 (blinding): "If the secret is accessed by a load ...
  during the blinding operation, we can use value prediction to
  extract the secret (it is not possible to extract the blinding
  factor, as it is random each time, while the secret is constant and
  gets trained into the value predictor)."
"""

import random

from repro.memory.hierarchy import MemorySystem
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import Core
from repro.vp.base import AccessKey
from repro.vp.lvp import LastValuePredictor
from repro.workloads import gadgets
from repro.workloads.gadgets import Layout

from tests.conftest import deterministic_memory_config


class TestFootnote4ValueCollision:
    def _trigger_event(self, sender_value, receiver_value):
        layout = Layout()
        memory = MemorySystem(deterministic_memory_config())
        predictor = LastValuePredictor(confidence_threshold=4)
        core = Core(memory, predictor, CoreConfig())
        memory.write_value(
            layout.receiver_pid, layout.receiver_known_addr, receiver_value
        )
        memory.write_value(
            layout.sender_pid, layout.sender_known_addr, sender_value
        )
        core.run(gadgets.train_program(
            "train", layout.receiver_pid, layout.receiver_base_pc,
            layout.collide_pc, layout.receiver_known_addr, 4,
        ))
        core.run(gadgets.train_program(
            "modify", layout.sender_pid, layout.sender_base_pc,
            layout.collide_pc, layout.sender_known_addr, 5,
        ))
        program = gadgets.timed_trigger_program(
            "trigger", layout.receiver_pid, layout.receiver_base_pc,
            layout.collide_pc, layout.receiver_known_addr, 36,
        )
        result = core.run(program)
        return result.loads_tagged(program, "trigger-load")[0]

    def test_distinct_values_mispredict(self):
        event = self._trigger_event(sender_value=40, receiver_value=3)
        assert event.predicted
        assert event.prediction_correct is False

    def test_colliding_values_stay_silent(self):
        # Same data behind both indices: the modify step re-trains the
        # entry with the receiver's own value, so the trigger predicts
        # correctly and the mapped case looks unmapped.
        event = self._trigger_event(sender_value=3, receiver_value=3)
        assert event.predicted
        assert event.prediction_correct is True


class TestBlindingClaim:
    def test_constant_secret_trains_random_blinding_does_not(self):
        # Victim invocations load (secret, blinding) pairs; the secret
        # is constant, the blinding factor fresh each time.  Only the
        # secret's predictor entry ever becomes confident.
        layout = Layout()
        memory = MemorySystem(deterministic_memory_config())
        predictor = LastValuePredictor(confidence_threshold=4)
        core = Core(memory, predictor, CoreConfig())
        rng = random.Random(1)

        secret_addr = 0x200000
        blind_addr = 0x210000
        secret_pc = 0x3000
        blind_pc = 0x3800
        memory.write_value(layout.sender_pid, secret_addr, 0x5EC2E7)

        for invocation in range(6):
            memory.write_value(
                layout.sender_pid, blind_addr, rng.randrange(1 << 60)
            )
            # One victim invocation: load the secret, load the blinding
            # factor (both forced to miss).
            from repro.isa.builder import ProgramBuilder
            builder = ProgramBuilder(f"blind-{invocation}",
                                     pid=layout.sender_pid)
            builder.flush(imm=secret_addr)
            builder.flush(imm=blind_addr)
            builder.fence()
            builder.pin_pc(secret_pc)
            builder.load(3, imm=secret_addr)
            builder.fence()
            builder.pin_pc(blind_pc)
            builder.load(4, imm=blind_addr)
            builder.fence()
            core.run(builder.build())

        secret_key = AccessKey(
            pc=secret_pc, addr=secret_addr, pid=layout.sender_pid
        )
        blind_key = AccessKey(
            pc=blind_pc, addr=blind_addr, pid=layout.sender_pid
        )
        # The constant secret is extractable from the predictor ...
        prediction = predictor.predict(secret_key)
        assert prediction is not None
        assert prediction.value == 0x5EC2E7
        # ... while the blinding factor never reaches confidence.
        assert predictor.predict(blind_key) is None
        assert predictor.confidence_of(blind_key) <= 1
