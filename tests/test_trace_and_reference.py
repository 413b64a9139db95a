"""Tests for RunResult helpers, the reference executor, and core edges."""

from repro.isa.builder import ProgramBuilder
from repro.memory.hierarchy import MemorySystem
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import Core
from repro.pipeline.reference import ReferenceExecutor
from repro.pipeline.trace import LoadEvent, RunResult
from repro.vp.nopred import NoPredictor

from tests.conftest import deterministic_memory_config


class TestRunResultHelpers:
    def _result(self, det_core):
        builder = ProgramBuilder("helper", pid=1)
        builder.rdtsc(9).fence()
        builder.load(3, imm=0x1000, tag="a")
        builder.fence().rdtsc(10).fence()
        builder.load(4, imm=0x2000, tag="b")
        builder.fence().rdtsc(11)
        program = builder.build()
        return program, det_core.run(program)

    def test_rdtsc_deltas(self, det_core):
        _, result = self._result(det_core)
        deltas = result.rdtsc_deltas()
        assert len(deltas) == 2
        assert all(d > 0 for d in deltas)
        assert result.rdtsc_delta(0, 2) == sum(deltas)

    def test_loads_at_pc_and_tagged(self, det_core):
        program, result = self._result(det_core)
        pc_a = program.pcs_tagged("a")[0]
        assert len(result.loads_at_pc(pc_a)) == 1
        assert len(result.loads_tagged(program, "b")) == 1
        assert result.loads_tagged(program, "nothing") == []

    def test_cycles_and_ipc(self, det_core):
        _, result = self._result(det_core)
        assert result.cycles == result.end_cycle - result.start_cycle
        assert 0 < result.ipc < 4

    def test_empty_result_ipc(self):
        result = RunResult(
            program_name="x", pid=0, start_cycle=5, end_cycle=5,
            retired=0, squashes=0,
        )
        assert result.ipc == 0.0

    def test_load_event_fields(self, det_core):
        _, result = self._result(det_core)
        event = result.load_events[0]
        assert isinstance(event, LoadEvent)
        assert event.latency == event.complete_cycle - event.issue_cycle
        assert not event.predicted


class TestReferenceExecutor:
    def test_reference_is_untimed(self, det_memory):
        builder = ProgramBuilder(pid=1)
        builder.li(1, 5).add(2, 1, imm=2).store(2, imm=0x100)
        builder.load(3, imm=0x100)
        program = builder.build()
        regs, tainted = ReferenceExecutor(det_memory).run(program)
        assert regs[2] == 7
        assert regs[3] == 7
        assert tainted == set()

    def test_rdtsc_tainting(self, det_memory):
        builder = ProgramBuilder(pid=1)
        builder.rdtsc(5)
        program = builder.build()
        regs, tainted = ReferenceExecutor(det_memory).run(program)
        assert 5 in tainted

    def test_taint_cleared_by_overwrite(self, det_memory):
        builder = ProgramBuilder(pid=1)
        builder.rdtsc(5).li(5, 9)
        program = builder.build()
        regs, tainted = ReferenceExecutor(det_memory).run(program)
        assert 5 not in tainted
        assert regs[5] == 9

    def test_loops_execute_fully(self, det_memory):
        builder = ProgramBuilder(pid=1)
        builder.li(1, 0)
        with builder.loop(7):
            builder.add(1, 1, imm=1)
        program = builder.build()
        regs, _ = ReferenceExecutor(det_memory).run(program)
        assert regs[1] == 7


class TestCoreEdgeCases:
    def test_mem_port_limit_serialises_wide_load_groups(self):
        # 6 independent loads to 6 lines, 2 mem ports: issue takes >= 3
        # cycles, but all misses still overlap in DRAM.
        memory = MemorySystem(deterministic_memory_config())
        core = Core(memory, NoPredictor(), CoreConfig(mem_ports=2))
        builder = ProgramBuilder(pid=1)
        builder.rdtsc(9).fence()
        for index in range(6):
            builder.load(2 + index, imm=0x10000 + index * 0x100)
        builder.fence().rdtsc(10)
        overlapped = core.run(builder.build()).rdtsc_delta()
        assert overlapped < 2 * 250  # far less than 6 serial misses

    def test_rob_full_stalls_but_completes(self):
        memory = MemorySystem(deterministic_memory_config())
        core = Core(memory, NoPredictor(), CoreConfig(rob_size=8))
        builder = ProgramBuilder(pid=1)
        builder.li(1, 0)
        for _ in range(50):
            builder.add(1, 1, imm=1)
        result = core.run(builder.build())
        assert result.registers[1] == 50

    def test_flush_orders_before_younger_load(self, det_core):
        # flush then load of the same line must miss (in-order memory
        # issue), even with no fence between them.
        builder = ProgramBuilder(pid=1)
        builder.load(2, imm=0x3000)   # warm the line
        builder.fence()
        builder.flush(imm=0x3000)
        builder.load(3, imm=0x3000, tag="after-flush")
        program = builder.build()
        result = det_core.run(program)
        event = result.loads_tagged(program, "after-flush")[0]
        assert not event.l1_hit

    def test_store_commits_before_halt(self, det_core):
        builder = ProgramBuilder(pid=1)
        builder.li(1, 99).store(1, imm=0x4000)
        det_core.run(builder.build())
        assert det_core.memory.read_value(1, 0x4000) == 99

    def test_two_runs_share_predictor_state(self, lvp_core):
        # Train in one program run; predict in the next: the VPS is
        # machine state, not program state.  The loop body places its
        # load two instructions after the pin target.
        load_pc = 0x500 + 2 * 4
        builder = ProgramBuilder("first", pid=1)
        builder.pin_pc(0x500)
        with builder.loop(4):
            builder.flush(imm=0x9000)
            builder.fence()
            builder.load(3, imm=0x9000)
            builder.fence()
        lvp_core.run(builder.build())

        second = ProgramBuilder("second", pid=1)
        second.flush(imm=0x9000)
        second.fence()
        second.pin_pc(load_pc)
        second.load(3, imm=0x9000, tag="t")
        program = second.build()
        result = lvp_core.run(program)
        event = result.loads_tagged(program, "t")[0]
        assert event.predicted
