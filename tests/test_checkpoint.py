"""Tests for atomic writes, the checkpoint journal, and resume."""

import json
import os

import pytest

from repro._version import __version__
from repro.core.channels import ChannelType
from repro.core.variants import TrainTestAttack
from repro.crypto.leak import RsaAttackResult
from repro.errors import HarnessError
from repro.harness.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointStore,
    atomic_write_json,
    atomic_write_text,
    deserialize_result,
    serialize_result,
)
from repro.harness.experiment import run_cell
from repro.harness.parallel import run_cells, sweep_specs
from repro.harness.persistence import run_all
from repro.harness.runner import (
    ExecutionPolicy,
    RetryPolicy,
)


class TestAtomicWrites:
    def test_text_written_and_no_tmp_left(self, tmp_path):
        path = str(tmp_path / "artifact.txt")
        atomic_write_text(path, "hello")
        assert open(path).read() == "hello\n"
        assert not os.path.exists(path + ".tmp")

    def test_replaces_existing_file(self, tmp_path):
        path = str(tmp_path / "artifact.txt")
        atomic_write_text(path, "old")
        atomic_write_text(path, "new")
        assert open(path).read() == "new\n"

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(HarnessError):
            atomic_write_text(str(tmp_path / "nope" / "artifact.txt"), "x")

    def test_json_round_trips(self, tmp_path):
        path = str(tmp_path / "payload.json")
        atomic_write_json(path, {"b": 2, "a": [1, None]})
        assert json.load(open(path)) == {"b": 2, "a": [1, None]}


class TestResultSerialization:
    def test_experiment_round_trip_is_exact(self):
        result = run_cell(
            TrainTestAttack(), ChannelType.TIMING_WINDOW, "lvp",
            n_runs=4, seed=3,
        )
        clone = deserialize_result(
            json.loads(json.dumps(serialize_result(result)))
        )
        assert clone.pvalue == result.pvalue  # bit-identical, recomputed
        assert clone.describe() == result.describe()
        assert clone.comparison.mapped.samples == \
            result.comparison.mapped.samples
        assert clone.attack_succeeds == result.attack_succeeds

    def test_rsa_round_trip(self):
        result = RsaAttackResult(
            observations=[1.0, 2.0, 3.0],
            decoded_bits=[1, 0, 1],
            true_bits=[1, 0, 0],
            threshold=1.5,
            success_rate=2 / 3,
            transmission_rate_kbps=0.4,
        )
        clone = deserialize_result(serialize_result(result))
        assert clone == result

    def test_unknown_type_rejected(self):
        with pytest.raises(HarnessError):
            serialize_result(object())

    def test_unknown_kind_rejected(self):
        with pytest.raises(HarnessError):
            deserialize_result({"kind": "mystery"})


class TestCheckpointStore:
    META = {"version": "1", "n_runs": 4, "seed": 0}

    def test_save_has_load(self, tmp_path):
        store = CheckpointStore.open(str(tmp_path / "run"), self.META)
        assert not store.has("table3/spill-over/tw_vp")
        store.save("table3/spill-over/tw_vp", {"cell_id": "x"})
        assert store.has("table3/spill-over/tw_vp")
        assert store.load("table3/spill-over/tw_vp") == {"cell_id": "x"}
        # Slashes are sanitised in the journal filename.
        assert store.completed_cells() == ["table3-spill-over-tw_vp"]

    def test_load_missing_cell_rejected(self, tmp_path):
        store = CheckpointStore.open(str(tmp_path / "run"), self.META)
        with pytest.raises(HarnessError):
            store.load("ghost")

    def test_fresh_open_clears_previous_journal(self, tmp_path):
        store = CheckpointStore.open(str(tmp_path / "run"), self.META)
        store.save("cell", {"cell_id": "cell"})
        reopened = CheckpointStore.open(str(tmp_path / "run"), self.META)
        assert not reopened.has("cell")

    def test_resume_keeps_journal(self, tmp_path):
        store = CheckpointStore.open(str(tmp_path / "run"), self.META)
        store.save("cell", {"cell_id": "cell"})
        resumed = CheckpointStore.open(
            str(tmp_path / "run"), self.META, resume=True
        )
        assert resumed.has("cell")

    def test_resume_with_different_parameters_rejected(self, tmp_path):
        CheckpointStore.open(str(tmp_path / "run"), self.META)
        with pytest.raises(HarnessError, match="n_runs"):
            CheckpointStore.open(
                str(tmp_path / "run"), {**self.META, "n_runs": 8},
                resume=True,
            )

    def test_resume_refuses_version_1_journal(self, tmp_path):
        # Version 1 journals could hold unstamped records and multi-
        # attempt escalations; a resume must not mix them in.
        assert CHECKPOINT_VERSION == 2
        run_all(str(tmp_path), n_runs=2, seed=0, artifacts=["fig5"])
        manifest_path = tmp_path / "checkpoint" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["checkpoint_version"] = 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(HarnessError, match="checkpoint_version"):
            run_all(str(tmp_path), n_runs=2, seed=0, artifacts=["fig5"],
                    resume=True)


class TestResumeFromPartialCheckpoint:
    def test_missing_cells_recomputed_journaled_cells_reused(self, tmp_path):
        meta = {"version": "1", "n_runs": 2, "seed": 0}
        run_dir = str(tmp_path / "run")
        specs = sweep_specs(["fig5"], n_runs=2, seed=0)
        original = run_cells(specs, CheckpointStore.open(run_dir, meta))
        cells_dir = os.path.join(run_dir, "cells")
        journaled = {
            name: open(os.path.join(cells_dir, name)).read()
            for name in sorted(os.listdir(cells_dir))
        }
        assert len(journaled) == 4

        # Simulate an interruption that lost one cell.
        lost = "fig5-persistent-lvp.json"
        os.unlink(os.path.join(cells_dir, lost))

        resumed = run_cells(
            specs, CheckpointStore.open(run_dir, meta, resume=True)
        )
        after = {
            name: open(os.path.join(cells_dir, name)).read()
            for name in sorted(os.listdir(cells_dir))
        }
        # Reused cells byte-identical; the lost cell was recomputed to
        # the identical payload (deterministic seeds).
        assert after == journaled
        assert list(original) == list(resumed)
        for cell_id, cell_a in original.items():
            cell_b = resumed[cell_id]
            assert cell_a.result.pvalue == cell_b.result.pvalue
            assert cell_a.result.comparison.mapped.samples == \
                cell_b.result.comparison.mapped.samples


class TestCrashResumeAcceptance:
    """The acceptance scenario: a sweep interrupted halfway through
    Table III, followed by ``--resume``, must produce byte-identical
    artifacts to an uninterrupted run."""

    def test_crash_then_resume_is_byte_identical(self, tmp_path):
        n_runs, seed = 3, 0
        meta = {"version": __version__, "n_runs": n_runs, "seed": seed}

        # Reference: uninterrupted sweep.
        ref_dir = tmp_path / "reference"
        ref_dir.mkdir()
        run_all(str(ref_dir), n_runs=n_runs, seed=seed,
                artifacts=["table3"])

        # Interrupted sweep: Ctrl-C partway through.
        out_dir = tmp_path / "interrupted"
        out_dir.mkdir()
        store = CheckpointStore.open(
            str(out_dir / "checkpoint"), meta
        )

        save = store.save

        def save_then_interrupt(cell_id, payload):
            # A Ctrl-C right after this cell is journaled.
            save(cell_id, payload)
            if cell_id == "table3/test-hit/tw_novp":
                raise KeyboardInterrupt

        store.save = save_then_interrupt
        with pytest.raises(KeyboardInterrupt):
            run_cells(
                sweep_specs(["table3"], n_runs=n_runs, seed=seed), store,
                ExecutionPolicy(retry=RetryPolicy(max_retries=0)),
            )
        completed = store.completed_cells()
        assert 0 < len(completed) < 18  # genuinely interrupted mid-sweep

        # Resume.
        run_all(str(out_dir), n_runs=n_runs, seed=seed,
                artifacts=["table3"], resume=True)

        for artifact in ("table3.json", "table3.txt"):
            reference = (ref_dir / artifact).read_bytes()
            resumed = (out_dir / artifact).read_bytes()
            assert resumed == reference, f"{artifact} differs after resume"

        # Every cell record carries a failure classification.
        payload = json.loads((out_dir / "table3.json").read_text())
        for cells in payload["cells"].values():
            for cell in cells.values():
                if cell is not None:
                    assert cell["execution"]["classification"] in (
                        "clean", "retried", "degraded"
                    )
