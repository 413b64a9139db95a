"""Pipeline tests: architectural semantics and basic timing."""

import pytest

from repro.errors import SimulationError
from repro.isa.builder import ProgramBuilder
from repro.isa.instructions import AluOp
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import Core
from repro.vp.nopred import NoPredictor


class TestAluSemantics:
    @pytest.mark.parametrize("op,lhs,rhs,expected", [
        (AluOp.ADD, 5, 3, 8),
        (AluOp.SUB, 5, 3, 2),
        (AluOp.XOR, 0b1100, 0b1010, 0b0110),
        (AluOp.AND, 0b1100, 0b1010, 0b1000),
        (AluOp.OR, 0b1100, 0b1010, 0b1110),
        (AluOp.MUL, 7, 6, 42),
        (AluOp.SHL, 3, 4, 48),
        (AluOp.SHR, 48, 4, 3),
    ])
    def test_register_ops(self, det_core, op, lhs, rhs, expected):
        builder = ProgramBuilder(pid=1)
        builder.li(1, lhs).li(2, rhs).alu(op, 3, 1, src2=2)
        result = det_core.run(builder.build())
        assert result.registers.get(3, 0) == expected

    def test_immediate_form(self, det_core):
        builder = ProgramBuilder(pid=1)
        builder.li(1, 10).add(2, 1, imm=5)
        result = det_core.run(builder.build())
        assert result.registers[2] == 15

    def test_64_bit_wraparound(self, det_core):
        builder = ProgramBuilder(pid=1)
        builder.li(1, (1 << 63)).li(2, (1 << 63)).add(3, 1, src2=2)
        result = det_core.run(builder.build())
        assert result.registers.get(3, 0) == 0

    def test_sub_wraps_not_negative(self, det_core):
        builder = ProgramBuilder(pid=1)
        builder.li(1, 1).li(2, 2).alu(AluOp.SUB, 3, 1, src2=2)
        result = det_core.run(builder.build())
        assert result.registers[3] == (1 << 64) - 1

    def test_dependency_chain_computes_in_order(self, det_core):
        builder = ProgramBuilder(pid=1)
        builder.li(1, 1)
        for _ in range(10):
            builder.add(1, 1, imm=1)
        result = det_core.run(builder.build())
        assert result.registers[1] == 11


class TestStoresAndLoads:
    def test_store_then_load(self, det_core):
        builder = ProgramBuilder(pid=1)
        builder.li(1, 777).store(1, imm=0x1000).fence().load(2, imm=0x1000)
        result = det_core.run(builder.build())
        assert result.registers[2] == 777

    def test_store_to_load_forwarding_without_fence(self, det_core):
        builder = ProgramBuilder(pid=1)
        builder.li(1, 123).store(1, imm=0x2000).load(2, imm=0x2000)
        result = det_core.run(builder.build())
        assert result.registers[2] == 123
        # The forwarded load never touched the memory hierarchy.
        event = result.load_events[0]
        assert event.forwarded

    def test_forwarding_picks_youngest_store(self, det_core):
        builder = ProgramBuilder(pid=1)
        builder.li(1, 1).li(2, 2)
        builder.store(1, imm=0x3000).store(2, imm=0x3000)
        builder.load(3, imm=0x3000)
        result = det_core.run(builder.build())
        assert result.registers[3] == 2

    def test_base_register_addressing(self, det_core):
        builder = ProgramBuilder(pid=1)
        builder.li(1, 0x4000).li(2, 9).store(2, base=1, imm=0x40)
        builder.fence().load(3, base=1, imm=0x40)
        result = det_core.run(builder.build())
        assert result.registers[3] == 9

    def test_memory_state_persists_across_runs(self, det_core):
        writer = ProgramBuilder("writer", pid=1)
        writer.li(1, 55).store(1, imm=0x5000)
        det_core.run(writer.build())
        reader = ProgramBuilder("reader", pid=1)
        reader.load(2, imm=0x5000)
        result = det_core.run(reader.build())
        assert result.registers[2] == 55


class TestRdtscAndFence:
    def test_rdtsc_values_monotonic(self, det_core):
        builder = ProgramBuilder(pid=1)
        builder.rdtsc(1).rdtsc(2)
        result = det_core.run(builder.build())
        assert len(result.rdtsc_values) == 2
        assert result.rdtsc_values[1][1] >= result.rdtsc_values[0][1]

    def test_rdtsc_waits_for_older_work(self, det_core):
        # t2 - t1 must cover a fenced DRAM miss between the readings.
        builder = ProgramBuilder(pid=1)
        builder.rdtsc(1).fence()
        builder.load(3, imm=0x6000)
        builder.fence().rdtsc(2)
        result = det_core.run(builder.build())
        assert result.rdtsc_delta() >= 200

    def test_rdtsc_delta_small_without_work(self, det_core):
        builder = ProgramBuilder(pid=1)
        builder.rdtsc(1).fence().rdtsc(2)
        result = det_core.run(builder.build())
        assert result.rdtsc_delta() < 20

    def test_fence_blocks_younger_dispatch(self, det_core):
        # A load after a fence cannot issue until the fence retires,
        # so two fenced loads take at least two serialized misses.
        builder = ProgramBuilder(pid=1)
        builder.rdtsc(1).fence()
        builder.load(3, imm=0x7000)
        builder.fence()
        builder.load(4, imm=0x8000)
        builder.fence().rdtsc(2)
        result = det_core.run(builder.build())
        assert result.rdtsc_delta() >= 400

    def test_unfenced_misses_overlap(self, det_core):
        builder = ProgramBuilder(pid=1)
        builder.rdtsc(1).fence()
        builder.load(3, imm=0x7000)
        builder.load(4, imm=0x8000)
        builder.fence().rdtsc(2)
        result = det_core.run(builder.build())
        # Memory-level parallelism: far less than two serial misses.
        assert result.rdtsc_delta() < 400


class TestRunAccounting:
    def test_retired_count(self, det_core):
        builder = ProgramBuilder(pid=1)
        builder.nop().nop().li(1, 1)
        result = det_core.run(builder.build())
        assert result.retired == 4  # 3 + halt

    def test_cycle_counter_is_global(self, det_core):
        program = ProgramBuilder(pid=1).nop().build()
        first = det_core.run(program)
        second = det_core.run(ProgramBuilder(pid=1).nop().build())
        assert second.start_cycle >= first.end_cycle

    def test_ipc_positive(self, det_core):
        builder = ProgramBuilder(pid=1)
        for index in range(20):
            builder.li(index % 8, index)
        result = det_core.run(builder.build())
        assert result.ipc > 0.5

    def test_livelock_guard(self, det_memory):
        core = Core(det_memory, NoPredictor(), CoreConfig(max_cycles=10))
        builder = ProgramBuilder(pid=1)
        builder.load(1, imm=0x9000)  # 200-cycle miss > 10-cycle budget
        with pytest.raises(SimulationError):
            core.run(builder.build())
