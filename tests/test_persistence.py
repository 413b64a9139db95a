"""Tests for artifact persistence."""

import json
import os

import pytest

from repro.core.attack import AttackConfig, AttackRunner
from repro.core.channels import ChannelType
from repro.core.variants import TrainTestAttack
from repro.errors import HarnessError
from repro.harness.persistence import (
    cell_record,
    experiment_record,
    run_all,
    save_json,
    save_text,
)
from repro.harness.runner import ResilientExecutor


@pytest.fixture
def result():
    config = AttackConfig(n_runs=5, seed=1)
    return AttackRunner(TrainTestAttack(), config).run_experiment()


class TestRecords:
    def test_experiment_record_is_json_serialisable(self, result):
        record = experiment_record(result)
        text = json.dumps(record)
        parsed = json.loads(text)
        assert parsed["variant"] == "Train + Test"
        assert parsed["channel"] == "timing-window"
        assert isinstance(parsed["pvalue"], float)
        assert parsed["mapped_samples"] == 5

    def test_record_carries_execution_classification(self, result):
        record = experiment_record(result)
        assert record["execution"]["classification"] == "clean"
        assert record["execution"]["note"] == "unsupervised run"

    def test_supervised_cell_record(self):
        executor = ResilientExecutor()
        cell = executor.run_cell_supervised(
            "t", TrainTestAttack(), ChannelType.TIMING_WINDOW,
            "lvp", n_runs=4, seed=1,
        )
        record = cell_record(cell)
        assert record["execution"]["classification"] == "clean"
        assert record["execution"]["final_seed"] == 1
        assert record["pvalue"] == cell.result.pvalue

    def test_cell_record_none_passthrough(self):
        assert cell_record(None) is None


class TestSavers:
    def test_save_json_roundtrip(self, tmp_path):
        path = str(tmp_path / "x.json")
        save_json(path, {"a": 1})
        assert json.load(open(path)) == {"a": 1}

    def test_save_text(self, tmp_path):
        path = str(tmp_path / "x.txt")
        save_text(path, "hello")
        assert open(path).read() == "hello\n"

    def test_missing_directory_rejected(self):
        with pytest.raises(HarnessError):
            save_json("/nonexistent-dir-xyz/x.json", {})

    def test_writes_are_atomic_no_tmp_left(self, tmp_path):
        save_json(str(tmp_path / "x.json"), {"a": 1})
        save_text(str(tmp_path / "x.txt"), "hello")
        leftovers = [
            name for name in os.listdir(str(tmp_path))
            if name.endswith(".tmp")
        ]
        assert leftovers == []


class TestRunAll:
    def test_selected_artifacts(self, tmp_path):
        written = run_all(
            str(tmp_path), n_runs=4, seed=1,
            artifacts=["table1", "table2"],
        )
        assert set(written) == {"table1", "table2"}
        assert os.path.exists(written["table1"])
        table2 = json.load(open(str(tmp_path / "table2.json")))
        assert table2["verdicts"]["effective"] == 12

    def test_fig5_artifact_records_four_panels(self, tmp_path):
        run_all(str(tmp_path), n_runs=4, seed=1, artifacts=["fig5"])
        payload = json.load(open(str(tmp_path / "fig5.json")))
        assert len(payload["panels"]) == 4
        assert payload["n_runs"] == 4
        for record in payload["panels"].values():
            assert record["execution"]["classification"] in (
                "clean", "retried", "degraded"
            )

    def test_supervised_run_writes_checkpoint_and_summary(self, tmp_path):
        run_all(str(tmp_path), n_runs=4, seed=1, artifacts=["fig5"])
        checkpoint = tmp_path / "checkpoint"
        assert (checkpoint / "manifest.json").exists()
        assert len(list((checkpoint / "cells").glob("*.json"))) == 4
        summary = json.load(open(str(tmp_path / "run_summary.json")))
        assert summary["cells"] == 4
        assert sum(summary["classifications"].values()) == 4

    def test_resume_reuses_journaled_cells(self, tmp_path):
        run_all(str(tmp_path), n_runs=4, seed=1, artifacts=["fig5"])
        first = json.load(open(str(tmp_path / "fig5.json")))
        run_all(str(tmp_path), n_runs=4, seed=1, artifacts=["fig5"],
                resume=True)
        assert json.load(open(str(tmp_path / "fig5.json"))) == first

    def test_resume_against_different_seed_rejected(self, tmp_path):
        run_all(str(tmp_path), n_runs=4, seed=1, artifacts=["fig5"])
        with pytest.raises(HarnessError, match="resume"):
            run_all(str(tmp_path), n_runs=4, seed=2, artifacts=["fig5"],
                    resume=True)

    def test_resume_against_removed_protocol_rejected(self, tmp_path):
        from repro._version import __version__
        from repro.harness.checkpoint import CheckpointStore

        # A journal left behind by the retired snapshot trial protocol.
        CheckpointStore.open(
            str(tmp_path / "checkpoint"),
            {"version": __version__, "n_runs": 4, "seed": 1,
             "snapshot_trials": True},
        )
        with pytest.raises(HarnessError, match="snapshot_trials"):
            run_all(str(tmp_path), n_runs=4, seed=1, artifacts=["fig5"],
                    resume=True)

    @pytest.mark.parametrize("written, resumed", [
        ("crash", None), (None, "crash"),
    ])
    def test_resume_across_fault_profiles_rejected(
        self, tmp_path, written, resumed
    ):
        run_all(str(tmp_path), n_runs=4, seed=0, artifacts=["fig5"],
                fault_profile_name=written)
        with pytest.raises(HarnessError, match="'fault_profile'"):
            run_all(str(tmp_path), n_runs=4, seed=0, artifacts=["fig5"],
                    fault_profile_name=resumed, resume=True)

    def test_bad_worker_count_rejected_before_any_write(self, tmp_path):
        with pytest.raises(HarnessError, match="workers"):
            run_all(str(tmp_path), artifacts=["table1"], workers=0)
        assert os.listdir(tmp_path) == []

    def test_bad_worker_env_rejected_before_any_write(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(HarnessError, match="REPRO_WORKERS"):
            run_all(str(tmp_path), artifacts=["fig5"])
        assert os.listdir(tmp_path) == []

    def test_unknown_artifact_rejected(self, tmp_path):
        with pytest.raises(HarnessError):
            run_all(str(tmp_path), artifacts=["bogus"])

    def test_missing_out_dir_rejected(self):
        with pytest.raises(HarnessError):
            run_all("/nonexistent-dir-xyz")


class TestRunAllHeavyArtifacts:
    def test_table3_artifact(self, tmp_path):
        import json
        written = run_all(
            str(tmp_path), n_runs=3, seed=1, artifacts=["table3"]
        )
        payload = json.load(open(str(tmp_path / "table3.json")))
        assert len(payload["cells"]) == 6
        train_test = payload["cells"]["Train + Test"]
        assert train_test["tw_vp"] is not None
        assert train_test["pc_vp"] is not None
        # Channel-free categories keep their dashes.
        assert payload["cells"]["Spill Over"]["pc_vp"] is None
        assert os.path.exists(written["table3"])

    def test_fig7_artifact(self, tmp_path):
        import json
        run_all(str(tmp_path), artifacts=["fig7"])
        payload = json.load(open(str(tmp_path / "fig7.json")))
        assert payload["bits"] == 60
        assert 0.8 <= payload["success_rate"] <= 1.0
        assert len(payload["observations"]) == 60
