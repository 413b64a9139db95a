"""Preflight wiring into the resilient executor and persistence."""

import pytest

from repro.analysis.preflight import preflight_cell
from repro.core.channels import ChannelType
from repro.core.variants import TrainTestAttack, variant_by_name
from repro.errors import AnalysisError
from repro.harness.checkpoint import CheckpointStore
from repro.harness.parallel import run_cells, sweep_specs
from repro.harness.persistence import cell_record
from repro.harness.runner import (
    ExecutionPolicy,
    ResilientExecutor,
    RetryPolicy,
    SupervisedCell,
    _passing_preflight,
)

N_RUNS = 12
CHANNEL = ChannelType.TIMING_WINDOW


def _run(executor, cell_id="cell-a", predictor="lvp"):
    return executor.run_cell_supervised(
        cell_id, TrainTestAttack(), CHANNEL, predictor,
        n_runs=N_RUNS, seed=1,
    )


class TestPreflightWiring:
    def test_preflight_record_attached(self):
        cell = _run(ResilientExecutor())
        assert cell.preflight is not None
        assert cell.preflight["ok"] is True
        assert cell.preflight["classification"]["effective"] is True

    def test_preflight_disabled_by_policy(self):
        executor = ResilientExecutor(ExecutionPolicy(preflight=False))
        cell = _run(executor)
        assert cell.preflight is None

    def test_payload_roundtrip_carries_preflight(self):
        cell = _run(ResilientExecutor())
        restored = SupervisedCell.from_payload(cell.to_payload())
        assert restored.preflight == cell.preflight

    def test_cell_record_exposes_static(self):
        cell = _run(ResilientExecutor())
        record = cell_record(cell)
        assert record["static"] == cell.preflight
        assert record["static"]["classification"]["symbol"]

    def test_resume_reuses_journaled_preflight(self, tmp_path):
        meta = {"v": 1}
        store = CheckpointStore.open(str(tmp_path / "ckpt"), meta)
        first = _run(ResilientExecutor(store=store))
        assert first.preflight is not None

        resumed_store = CheckpointStore.open(
            str(tmp_path / "ckpt"), meta, resume=True
        )
        second = _run(ResilientExecutor(store=resumed_store))
        assert second.to_payload() == first.to_payload()

    def test_failed_preflight_aborts_before_simulation(self, monkeypatch):
        from repro.analysis.preflight import LintIssue, PreflightReport

        def broken_preflight(variant, channel, **kwargs):
            return PreflightReport(
                subject="broken",
                issues=[LintIssue("indistinguishable", "forced", "broken")],
            )

        def no_sim(*args, **kwargs):  # pragma: no cover
            raise AssertionError("simulation must not start")

        monkeypatch.setattr(
            "repro.analysis.preflight.preflight_cell", broken_preflight
        )
        monkeypatch.setattr("repro.harness.experiment.run_cell", no_sim)
        executor = ResilientExecutor(
            ExecutionPolicy(retry=RetryPolicy(max_retries=0))
        )
        with pytest.raises(AnalysisError, match="indistinguishable"):
            _run(executor)


def _table3_cells():
    specs = sweep_specs(["table3"], n_runs=4, seed=0)
    assert len(specs) == 18
    return [
        (spec.cell_id, variant_by_name(spec.variant),
         ChannelType(spec.channel), spec.predictor)
        for spec in specs
    ]


class TestPreflightMemo:
    def test_hits_equal_a_fresh_analysis_for_every_table3_cell(self):
        executor = ResilientExecutor()
        for cell_id, variant, channel, predictor in _table3_cells():
            executor._preflight_payload(variant, channel, predictor, {})
            hits = _passing_preflight.cache_info().hits
            payload = executor._preflight_payload(
                variant, channel, predictor, {}
            )
            assert _passing_preflight.cache_info().hits == hits + 1
            fresh = preflight_cell(variant, channel, predictor=predictor)
            assert payload == fresh.to_payload(), cell_id

    def test_mutating_a_payload_leaves_the_next_hit_intact(self):
        executor = ResilientExecutor()
        variant = variant_by_name("Train + Test")
        first = executor._preflight_payload(variant, CHANNEL, "lvp", {})
        expected = preflight_cell(variant, CHANNEL, predictor="lvp")
        first["ok"] = False
        first["issues"].append({"rule": "forged"})
        first["classification"]["effective"] = False
        second = executor._preflight_payload(variant, CHANNEL, "lvp", {})
        assert second == expected.to_payload()

    def test_failing_preflight_raises_on_every_call(self, monkeypatch):
        from repro.analysis.preflight import LintIssue, PreflightReport

        calls = []

        def broken_preflight(variant, channel, **kwargs):
            calls.append(variant)
            return PreflightReport(
                subject="broken",
                issues=[LintIssue("indistinguishable", "forced", "broken")],
            )

        monkeypatch.setattr(
            "repro.analysis.preflight.preflight_cell", broken_preflight
        )
        executor = ResilientExecutor()
        variant = TrainTestAttack()
        for _ in range(3):
            with pytest.raises(AnalysisError, match="indistinguishable"):
                executor._preflight_payload(variant, CHANNEL, "lvp", {})
        assert calls == [variant] * 3
        monkeypatch.undo()
        payload = executor._preflight_payload(variant, CHANNEL, "lvp", {})
        assert payload["ok"] is True

    def test_worker_count_leaves_static_records_unchanged(self, tmp_path):
        specs = sweep_specs(["table3"], n_runs=4, seed=0)
        policy = ExecutionPolicy(backend="batched")
        static = {}
        for workers in (1, 2):
            store = CheckpointStore.open(
                str(tmp_path / str(workers)), {"v": 1}, resume=False
            )
            run_cells(specs, store, policy, workers=workers)
            static[workers] = {
                spec.cell_id: store.load(spec.cell_id)["preflight"]
                for spec in specs
            }
        assert static[1] == static[2]
        assert all(record["ok"] for record in static[1].values())
