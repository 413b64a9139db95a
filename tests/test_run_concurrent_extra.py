"""Additional SMT co-execution tests: three contexts, fairness, memory."""

from repro.isa.builder import ProgramBuilder
from repro.memory.hierarchy import MemorySystem
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import Core
from repro.vp.nopred import NoPredictor

from tests.conftest import deterministic_memory_config


def mul_stream(name, pid, count=40):
    builder = ProgramBuilder(name, pid=pid)
    builder.li(1, 2)
    builder.fence().rdtsc(9).fence()
    for index in range(count):
        builder.mul(8 + (index % 8), 1, imm=3)
    builder.fence().rdtsc(10)
    return builder.build()


class TestThreeContexts:
    def test_three_way_contention_scales(self):
        solo = Core(
            MemorySystem(deterministic_memory_config()), NoPredictor()
        ).run(mul_stream("solo", 1)).rdtsc_delta()
        core = Core(
            MemorySystem(deterministic_memory_config()), NoPredictor()
        )
        results = core.run_concurrent([
            mul_stream("a", 1), mul_stream("b", 2), mul_stream("c", 3)
        ])
        deltas = [result.rdtsc_delta() for result in results]
        # One port split three ways with round-robin: everyone lands
        # near 3x the solo time.
        for delta in deltas:
            assert delta > solo * 2
            assert delta < solo * 4.5

    def test_results_in_program_order(self):
        core = Core(
            MemorySystem(deterministic_memory_config()), NoPredictor()
        )
        results = core.run_concurrent([
            mul_stream("first", 1), mul_stream("second", 2)
        ])
        assert results[0].program_name == "first"
        assert results[1].program_name == "second"

    def test_uneven_lengths_release_resources(self):
        # A short co-runner finishing early releases its port share;
        # the long stream's tail runs at solo speed.
        short = mul_stream("short", 2, count=8)
        long_stream = mul_stream("long", 1, count=120)
        core = Core(
            MemorySystem(deterministic_memory_config()), NoPredictor()
        )
        long_result, short_result = core.run_concurrent(
            [long_stream, short]
        )
        solo = Core(
            MemorySystem(deterministic_memory_config()), NoPredictor()
        ).run(mul_stream("solo", 1, count=120)).rdtsc_delta()
        # The long stream pays contention only while the short one runs.
        assert long_result.rdtsc_delta() < solo + 3 * 8 * 4

    def test_end_cycles_differ_per_context(self):
        core = Core(
            MemorySystem(deterministic_memory_config()), NoPredictor()
        )
        results = core.run_concurrent([
            mul_stream("long", 1, count=100), mul_stream("short", 2, count=5)
        ])
        assert results[1].end_cycle < results[0].end_cycle

    def test_shared_cache_between_contexts(self):
        # Context A's load warms the shared-region line for context B.
        memory = MemorySystem(deterministic_memory_config())
        memory.add_shared_region(0x700000, 0x1000)
        core = Core(memory, NoPredictor(), CoreConfig())
        a = ProgramBuilder("warm", pid=1)
        a.load(2, imm=0x700040)
        a.fence()
        # Keep context A alive long enough for B's fenced load to run
        # after A's fill.
        for _ in range(40):
            a.nop()
        b = ProgramBuilder("reader", pid=2)
        for _ in range(30):
            b.nop()
        b.fence()
        b.load(3, imm=0x700040, tag="shared")
        program_b = b.build()
        _, result_b = core.run_concurrent([a.build(), program_b])
        event = result_b.loads_tagged(program_b, "shared")[0]
        assert event.l1_hit
