"""Unit tests for the perf observability layer (`repro.perf`)."""

from __future__ import annotations

import json

import pytest

from repro.perf.counters import COUNTERS, PerfCounters
from repro.perf.memo import memoize_program
from repro.perf.observe import Stopwatch, throughput, write_bench_snapshot


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

    def test_hit_rates(self):
        counters = PerfCounters()
        assert counters.program_cache_hit_rate == 0.0
        counters.program_cache_hits = 3
        counters.program_cache_misses = 1
        assert counters.program_cache_hit_rate == pytest.approx(0.75)
        counters.trace_cache_hits = 1
        counters.trace_cache_misses = 3
        assert counters.trace_cache_hit_rate == pytest.approx(0.25)

    def test_reset(self):
        counters = PerfCounters()
        counters.trials = 5
        counters.reset()
        assert all(value == 0 for value in counters.snapshot().values())

    def test_snapshot_counters_roundtrip(self):
        counters = PerfCounters()
        counters.warm_resets = 4
        counters.sequential_cycles_avoided = 1000
        counters.batched_lane_cycles = 2048
        delta = PerfCounters.delta(PerfCounters().snapshot(),
                                   counters.snapshot())
        assert delta == {
            "warm_resets": 4,
            "sequential_cycles_avoided": 1000,
            "batched_lane_cycles": 2048,
        }

    def test_global_singleton_counts_simulation(self):
        from repro.core.channels import ChannelType
        from repro.harness.experiment import run_cell
        from repro.harness.parallel import _variant_by_name

        before = COUNTERS.snapshot()
        # backend pinned: warm_resets counts the scalar warm-machine
        # reset protocol, which the batched backend does not use.
        run_cell(
            _variant_by_name("Train + Test"), ChannelType.TIMING_WINDOW,
            "lvp", n_runs=2, seed=0, backend="scalar",
        )
        delta = PerfCounters.delta(before, COUNTERS.snapshot())
        assert delta.get("trials", 0) > 0
        assert delta.get("simulated_cycles", 0) > 0
        assert delta.get("warm_resets", 0) > 0


class TestMemoizeProgram:
    def test_hits_and_misses_counted(self):
        calls = []

        @memoize_program()
        def build(n, flavor="plain"):
            calls.append(n)
            return [n, flavor]

        before = COUNTERS.snapshot()
        assert build(1) == [1, "plain"]
        assert build(1) == [1, "plain"]
        assert build(2) == [2, "plain"]
        delta = PerfCounters.delta(before, COUNTERS.snapshot())
        assert calls == [1, 2]
        assert delta["program_cache_misses"] == 2
        assert delta["program_cache_hits"] == 1

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

        @memoize_program()
        def build(thing):
            return 42

        before = COUNTERS.snapshot()
        assert build(Opaque()) == 42
        assert build(Opaque()) == 42
        delta = PerfCounters.delta(before, COUNTERS.snapshot())
        assert delta["program_cache_misses"] == 2
        assert build.cache_len() == 0

    def test_lru_eviction(self):
        @memoize_program(maxsize=2)
        def build(n):
            return n

        before = COUNTERS.snapshot()
        build(1), build(2), build(3)
        assert build.cache_len() == 2
        delta = PerfCounters.delta(before, COUNTERS.snapshot())
        assert delta["program_cache_evictions"] == 1
        build.cache_clear()
        assert build.cache_len() == 0

    def test_eviction_count_bounded_by_misses(self):
        @memoize_program(maxsize=3)
        def build(n):
            return n

        before = COUNTERS.snapshot()
        for n in range(10):
            build(n)
        delta = PerfCounters.delta(before, COUNTERS.snapshot())
        assert delta["program_cache_misses"] == 10
        # The cache never evicts more than it admitted beyond its
        # capacity bound.
        assert delta["program_cache_evictions"] == 10 - 3
        assert build.cache_len() == 3

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

    def test_throughput(self):
        assert throughput(10, 2.0) == pytest.approx(5.0)
        assert throughput(10, 0.0) == 0.0

    def test_snapshot_merges_sections(self, tmp_path):
        path = tmp_path / "bench" / "BENCH.json"
        write_bench_snapshot(path, "alpha", {"x": 1})
        merged = write_bench_snapshot(path, "beta", {"y": 2})
        assert merged == {"alpha": {"x": 1}, "beta": {"y": 2}}
        assert json.loads(path.read_text()) == merged

    def test_snapshot_survives_corrupt_file(self, tmp_path):
        path = tmp_path / "BENCH.json"
        path.write_text("not json{")
        merged = write_bench_snapshot(path, "alpha", {"x": 1})
        assert merged == {"alpha": {"x": 1}}


class TestBaseline:
    def test_perf_baseline_report_and_snapshot(self, tmp_path):
        from repro.perf.baseline import perf_baseline, render_perf_report

        snapshot = tmp_path / "BENCH_parallel.json"
        report = perf_baseline(
            n_runs=2, seed=0, workers=2, artifacts=["fig5"],
            snapshot_path=str(snapshot),
        )
        assert report["cells"] == 4
        assert report["backend"]["identical"] is True
        assert report["sequential"]["verdict_identical"] is True
        assert report["serial"]["cells_run"] == 4
        assert report["parallel"]["workers"] == 2
        assert report["parallel"]["speedup"] > 0
        document = json.loads(snapshot.read_text())
        assert "repro_perf" in document

        rendered = render_perf_report(report)
        assert "trial-loop backend" in rendered
        assert "group-sequential" in rendered
        assert "serial sweep" in rendered
        assert "parallel sweep" in rendered

    def test_profile_dump(self, tmp_path):
        import pstats

        from repro.perf.baseline import perf_baseline

        profile_path = tmp_path / "sweep.pstats"
        perf_baseline(
            n_runs=2, seed=0, workers=1, artifacts=["fig5"],
            snapshot_path=None, profile_path=str(profile_path),
        )
        stats = pstats.Stats(str(profile_path))
        assert stats.total_calls > 0
