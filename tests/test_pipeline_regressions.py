"""Regression tests for pipeline fast paths and corner interactions.

These pin down behaviours around the scan-cost optimisations (the
pending-issue list and the earliest-completion cache): squashes while
ops wait for issue, serialising ops inside loops, and repeated
mispredictions in one program.
"""

from repro.isa.builder import ProgramBuilder
from repro.memory.hierarchy import MemorySystem
from repro.pipeline.core import Core
from repro.pipeline.reference import ReferenceExecutor
from repro.vp.lvp import LastValuePredictor

from tests.conftest import deterministic_memory_config

ADDR = 0x40000
LOAD_PC = 0x1000


def train(core, count, value, addr=ADDR, pid=1):
    core.memory.write_value(pid, addr, value)
    builder = ProgramBuilder("train", pid=pid)
    builder.pin_pc(LOAD_PC - 8)
    with builder.loop(count):
        builder.flush(imm=addr)
        builder.fence()
        builder.load(3, imm=addr)
        builder.fence()
    core.run(builder.build())


class TestSquashWithPendingWork:
    def test_squash_of_unissued_dependents(self):
        # A mispredicted load with MANY dependents still waiting to
        # issue: the pending-issue list must drop the squashed ops and
        # the replay must still produce the right result.
        memory = MemorySystem(deterministic_memory_config())
        core = Core(memory, LastValuePredictor(confidence_threshold=4))
        train(core, 4, 42)
        memory.write_value(1, ADDR, 99)

        builder = ProgramBuilder("trigger", pid=1)
        builder.flush(imm=ADDR)
        builder.fence()
        builder.pin_pc(LOAD_PC)
        builder.load(3, imm=ADDR)
        builder.dependent_chain(200, dst=30, src=3)  # >> ROB size
        result = core.run(builder.build())
        assert result.squashes == 1
        assert result.registers[30] == 99 + 200

    def test_double_misprediction_in_one_program(self):
        memory = MemorySystem(deterministic_memory_config())
        core = Core(memory, LastValuePredictor(confidence_threshold=2))
        # Two separately trained entries, both made stale.
        train(core, 3, 10, addr=ADDR)
        second_pc = LOAD_PC + 0x100
        memory.write_value(1, ADDR + 0x100, 20)
        builder = ProgramBuilder("train2", pid=1)
        builder.pin_pc(second_pc - 8)
        with builder.loop(3):
            builder.flush(imm=ADDR + 0x100)
            builder.fence()
            builder.load(3, imm=ADDR + 0x100)
            builder.fence()
        core.run(builder.build())
        memory.write_value(1, ADDR, 11)
        memory.write_value(1, ADDR + 0x100, 21)

        trigger = ProgramBuilder("trigger", pid=1)
        trigger.flush(imm=ADDR)
        trigger.fence()
        trigger.pin_pc(LOAD_PC)
        trigger.load(4, imm=ADDR)
        trigger.add(10, 4, imm=1)
        trigger.fence()
        trigger.flush(imm=ADDR + 0x100)
        trigger.fence()
        trigger.pin_pc(second_pc)
        trigger.load(5, imm=ADDR + 0x100)
        trigger.add(11, 5, imm=1)
        result = core.run(trigger.build())
        assert result.squashes == 2
        assert result.registers[10] == 12
        assert result.registers[11] == 22


class TestSerialisingInsideLoops:
    def test_fence_in_loop_body(self, det_core):
        builder = ProgramBuilder(pid=1)
        builder.li(1, 0)
        with builder.loop(5):
            builder.add(1, 1, imm=1)
            builder.fence()
        result = det_core.run(builder.build())
        assert result.registers[1] == 5

    def test_rdtsc_in_loop_body(self, det_core):
        builder = ProgramBuilder(pid=1)
        with builder.loop(4):
            builder.rdtsc(9)
            builder.fence()
            builder.load(3, imm=0x5000)
            builder.fence()
        result = det_core.run(builder.build())
        assert len(result.rdtsc_values) == 4
        values = [value for _, value in result.rdtsc_values]
        assert values == sorted(values)

    def test_squash_inside_loop_matches_reference(self):
        # A loop whose load value changes (via stores in the body):
        # with an aggressive predictor every iteration mispredicts, yet
        # architecture must match the in-order reference.
        def build():
            builder = ProgramBuilder("loop-squash", pid=1)
            builder.li(1, 0)
            with builder.loop(6):
                builder.add(1, 1, imm=3)
                builder.store(1, imm=0x6000)
                builder.fence()
                builder.flush(imm=0x6000)
                builder.load(4, imm=0x6000)
                builder.add(2, 4, imm=1)
                builder.fence()
            return builder.build()

        core_memory = MemorySystem(deterministic_memory_config())
        core = Core(
            core_memory, LastValuePredictor(confidence_threshold=1)
        )
        result = core.run(build())

        reference_memory = MemorySystem(deterministic_memory_config())
        reference_regs, _ = ReferenceExecutor(reference_memory).run(build())
        assert result.registers.get(1, 0) == reference_regs[1]
        assert result.registers.get(2, 0) == reference_regs[2]
        assert result.registers.get(4, 0) == reference_regs[4]


class TestEarliestCompletionCache:
    def test_quiet_cycles_complete_nothing(self, det_core):
        # Run something trivially and ensure the machine still drains
        # (the fast-exit path must not starve completion).
        builder = ProgramBuilder(pid=1)
        builder.load(2, imm=0x7000)
        builder.fence()
        builder.load(3, imm=0x7000)
        result = det_core.run(builder.build())
        assert result.retired == len(builder._placed)

    def test_interleaved_latencies(self, det_core):
        # Mixed short ALU and long memory completions exercise the
        # cache's recompute path.
        builder = ProgramBuilder(pid=1)
        builder.load(2, imm=0x8000)     # long
        builder.li(1, 5)                # short
        builder.add(4, 1, imm=1)        # short
        builder.add(5, 2, imm=1)        # waits for the load
        result = det_core.run(builder.build())
        assert result.registers[4] == 6
        expected = det_core.memory.read_value(1, 0x8000) + 1
        assert result.registers[5] == expected & ((1 << 64) - 1)
