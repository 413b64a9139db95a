"""Unit tests for the perf observability layer (`repro.perf`)."""

from __future__ import annotations

from repro.perf.counters import COUNTERS, PerfCounters
from repro.perf.memo import memoize_program
from repro.perf.observe import Stopwatch


class TestPerfCounters:
    def test_snapshot_delta_add_roundtrip(self):
        counters = PerfCounters()
        before = counters.snapshot()
        counters.trials += 3
        counters.simulated_cycles += 1000
        delta = PerfCounters.delta(before, counters.snapshot())
        assert delta == {"trials": 3, "simulated_cycles": 1000}

        other = PerfCounters()
        other.add(delta)
        assert other.trials == 3
        assert other.simulated_cycles == 1000

    def test_reset(self):
        counters = PerfCounters()
        counters.trials = 5
        counters.reset()
        assert all(value == 0 for value in counters.snapshot().values())

    def test_snapshot_counters_roundtrip(self):
        counters = PerfCounters()
        counters.sequential_looks = 4
        counters.sequential_cycles_avoided = 1000
        counters.batched_vector_trials = 2048
        delta = PerfCounters.delta(PerfCounters().snapshot(),
                                   counters.snapshot())
        assert delta == {
            "sequential_looks": 4,
            "sequential_cycles_avoided": 1000,
            "batched_vector_trials": 2048,
        }

    def test_global_singleton_counts_simulation(self):
        from repro.core.channels import ChannelType
        from repro.harness.experiment import run_cell
        from repro.core.variants import variant_by_name

        before = COUNTERS.snapshot()
        run_cell(
            variant_by_name("Train + Test"), ChannelType.TIMING_WINDOW,
            "lvp", n_runs=2, seed=0, backend="scalar",
        )
        delta = PerfCounters.delta(before, COUNTERS.snapshot())
        assert delta.get("trials", 0) == 4
        assert delta.get("simulated_cycles", 0) > 0


class TestMemoizeProgram:
    def test_hits_and_misses_counted(self):
        calls = []

        @memoize_program()
        def build(n, flavor="plain"):
            calls.append(n)
            return [n, flavor]

        assert build(1) == [1, "plain"]
        assert build(1) == [1, "plain"]
        assert build(2) == [2, "plain"]
        # Two misses call the factory; the hit does not.
        assert calls == [1, 2]
        assert build.cache_len() == 2

    def test_freezes_mutable_arguments(self):
        @memoize_program()
        def build(values):
            return sum(values)

        assert build([1, 2]) == 3
        assert build([1, 2]) == 3
        assert build.cache_len() == 1

    def test_unhashable_falls_through(self):
        class Opaque:
            __hash__ = None  # type: ignore[assignment]

        calls = []

        @memoize_program()
        def build(thing):
            calls.append(thing)
            return 42

        assert build(Opaque()) == 42
        assert build(Opaque()) == 42
        assert len(calls) == 2
        assert build.cache_len() == 0

    def test_lru_eviction(self):
        calls = []

        @memoize_program(maxsize=2)
        def build(n):
            calls.append(n)
            return n

        build(1), build(2), build(3)
        assert build.cache_len() == 2
        # The least recently used entry, 1, was evicted; 3 was kept.
        build(3), build(1)
        assert calls == [1, 2, 3, 1]
        build.cache_clear()
        assert build.cache_len() == 0

    def test_eviction_count_bounded_by_misses(self):
        calls = []

        @memoize_program(maxsize=3)
        def build(n):
            calls.append(n)
            return n

        for n in range(10):
            build(n)
        assert len(calls) == 10
        # The cache never evicts more than it admitted beyond its
        # capacity bound: the last 3 stay, the 10 - 3 before them go.
        assert build.cache_len() == 3
        for n in range(7, 10):
            build(n)
        assert len(calls) == 10
        build(6)
        assert len(calls) == 11

    def test_gadget_factories_are_memoized(self):
        from repro.workloads.gadgets import train_program

        args = dict(name="t", pid=1, base_pc=0x1000, load_pc=0x1100,
                    addr=0x2000, count=3)
        assert train_program(**args) is train_program(**args)
        assert train_program(**args) is not train_program(
            **{**args, "pid": 2}
        )


class TestObserve:
    def test_stopwatch_accumulates(self):
        watch = Stopwatch()
        for _ in range(2):
            with watch:
                pass
        assert watch.laps == 2
        assert watch.elapsed >= 0.0
