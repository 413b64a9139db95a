"""Determinism of the process-pool sweep engine.

The contract under test: journal payloads and artifact records are
byte-identical for any worker count — including the serial fallback,
under fault injection, and across a mid-sweep crash + resume.  The
tests hash the rendered records, so any divergence (seed derivation,
ordering, float formatting) fails loudly.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.errors import HarnessError
from repro.harness.checkpoint import CheckpointStore
from repro.harness.faults import FaultInjector, FaultProfile, fault_profile
from repro.harness.parallel import (
    CellSpec,
    WORKERS_ENV,
    default_workers,
    run_cells,
    sweep_specs,
)
from repro.harness.persistence import run_all
from repro.harness.runner import (
    CellClassification,
    ExecutionPolicy,
    RetryPolicy,
    cell_seed_index,
    reseed,
)
from repro.perf.counters import COUNTERS, PerfCounters
from repro.sim import clear_fallback_journal, fallback_journal

META = {"version": "test", "n_runs": 4, "seed": 0}


def _digest(payloads) -> str:
    return hashlib.sha256(
        json.dumps(payloads, sort_keys=True).encode()
    ).hexdigest()


def _run(tmp_path, specs, name, **kwargs):
    store = CheckpointStore.open(
        str(tmp_path / name / "checkpoint"), dict(META), resume=False
    )
    cells = run_cells(specs, store, ExecutionPolicy(), **kwargs)
    return cells, {spec.cell_id: store.load(spec.cell_id) for spec in specs}


class TestSpecEnumeration:
    def test_fig_panels_and_rsa(self):
        specs = sweep_specs(["fig5", "fig7"], n_runs=8, seed=3)
        ids = [spec.cell_id for spec in specs]
        assert "fig5/timing-window-none" in ids
        assert "fig5/timing-window-lvp" in ids
        assert "fig5/persistent-lvp" in ids
        assert "fig7/rsa" in ids
        rsa = next(spec for spec in specs if spec.kind == "rsa")
        assert rsa.seed == 7  # Figure 7 pins its own seed
        assert rsa.artifact == "fig7"
        for spec in specs:
            if spec.kind == "experiment":
                assert spec.n_runs == 8 and spec.seed == 3
        # Each panel names its slot: the figure's panel title.
        assert [spec.slot for spec in specs if spec.artifact == "fig5"] == [
            "(1) Timing-Window Channel (no VP)",
            "(2) Timing-Window Channel (LVP)",
            "(3) Persistent Channel (no VP)",
            "(4) Persistent Channel (LVP)",
        ]

    def test_table3_covers_all_variants(self):
        from repro.core.variants import ALL_VARIANTS

        specs = sweep_specs(["table3"], n_runs=4, seed=0)
        # Every variant has the two timing-window cells; persistent
        # cells appear only where the channel is supported.
        assert len(specs) == sum(
            2 + 2 * ("persistent" in
                     {c.value for c in v.supported_channels})
            for v in ALL_VARIANTS
        )
        assert len({spec.cell_id for spec in specs}) == len(specs)
        # Each cell names its slot: the Table III column it fills.
        assert {spec.slot for spec in specs} == {
            "tw_novp", "tw_vp", "pc_novp", "pc_vp",
        }
        assert all(spec.cell_id.endswith("/" + spec.slot) for spec in specs)

    def test_serial_run_all_journals_exactly_the_specs(self, tmp_path):
        # run_all runs exactly the plan: one journal record per spec,
        # each measuring the spec's variant, channel and predictor.
        artifacts = ["fig5", "fig7", "fig8", "table3"]
        run_all(str(tmp_path), n_runs=2, seed=0, artifacts=artifacts,
                workers=1)
        journaled = {}
        for path in (tmp_path / "checkpoint" / "cells").glob("*.json"):
            record = json.loads(path.read_text())
            journaled[record["cell_id"]] = record["result"]
        specs = sweep_specs(artifacts, n_runs=2, seed=0)
        assert sorted(journaled) == sorted(spec.cell_id for spec in specs)
        for spec in specs:
            if spec.kind == "experiment":
                result = journaled[spec.cell_id]
                assert (result["variant"], result["channel"],
                        result["predictor"]) == (
                    spec.variant, spec.channel, spec.predictor)

    def test_spec_validation(self):
        with pytest.raises(HarnessError):
            CellSpec(cell_id="x", kind="bogus")
        with pytest.raises(HarnessError):
            CellSpec(cell_id="x", kind="experiment", variant="")


class TestWorkerCountInvariance:
    def test_parallel_matches_serial_fallback(self, tmp_path):
        specs = sweep_specs(["fig5"], n_runs=4, seed=0)
        digests = set()
        for workers in (1, 2, 4):
            cells, journal = _run(tmp_path, specs, str(workers),
                                  workers=workers)
            # The cells come back by id, in plan order, as journaled.
            assert list(cells) == [spec.cell_id for spec in specs]
            assert {cell_id: cell.to_payload()
                    for cell_id, cell in cells.items()} == journal
            digests.add(_digest(journal))
        assert len(digests) == 1

    def test_parallel_matches_under_crash_faults(self, tmp_path):
        specs = sweep_specs(["fig5"], n_runs=4, seed=0)
        _, serial = _run(
            tmp_path, specs, "serial", workers=1,
            fault_profile=fault_profile("crash"), fault_seed=0,
        )
        _, par = _run(
            tmp_path, specs, "par", workers=2,
            fault_profile=fault_profile("crash"), fault_seed=0,
        )
        assert _digest(serial) == _digest(par)

    def test_cached_cells_are_skipped(self, tmp_path, journaled_ids):
        specs = sweep_specs(["fig5"], n_runs=4, seed=0)
        store = CheckpointStore.open(
            str(tmp_path / "checkpoint"), dict(META), resume=False
        )
        saved = journaled_ids(store)
        run_cells(specs, store, ExecutionPolicy(), workers=2)
        assert sorted(saved) == sorted(spec.cell_id for spec in specs)
        saved.clear()
        run_cells(specs, store, ExecutionPolicy(), workers=2)
        assert saved == []

    def test_stats_telemetry(self, tmp_path):
        # Worker counters fold into this process's, so a before/after
        # snapshot sees the whole sweep.
        specs = sweep_specs(["fig5"], n_runs=4, seed=0)
        before = COUNTERS.snapshot()
        cells, _ = _run(tmp_path, specs, "stats", workers=2)
        delta = PerfCounters.delta(before, COUNTERS.snapshot())
        assert len(cells) == len(specs)
        assert all(cell.classification is not CellClassification.FAILED
                   for cell in cells.values())
        assert delta["trials"] > 0
        assert delta["simulated_cycles"] > 0

    def test_pool_failure_is_not_rerun_in_parent(self, tmp_path, monkeypatch):
        # A cell that fails in a worker comes back decoded from the
        # worker's payload, identical to a serial failure, and the
        # parent never attempts it again.
        specs = sweep_specs(["fig5"], n_runs=4, seed=0)
        doomed = specs[0].cell_id
        profile = FaultProfile(name="test-crash", crash_cells=(doomed,))
        policy = ExecutionPolicy(retry=RetryPolicy(max_retries=0))
        serial = run_cells(specs, None, policy, workers=1,
                           fault_profile=profile)
        assert serial[doomed].classification is CellClassification.FAILED

        parent_draws = []
        maybe_crash = FaultInjector.maybe_crash

        def spy(self, cell_id, attempt):
            # Forked workers append to their own copy of the list.
            parent_draws.append(cell_id)
            maybe_crash(self, cell_id, attempt)

        monkeypatch.setattr(FaultInjector, "maybe_crash", spy)
        store = CheckpointStore.open(
            str(tmp_path / "checkpoint"), dict(META), resume=False
        )
        pooled = run_cells(specs, store, policy, workers=2,
                           fault_profile=profile)
        assert pooled[doomed].classification is CellClassification.FAILED
        assert pooled[doomed].to_payload() == serial[doomed].to_payload()
        assert doomed not in parent_draws
        assert not store.has(doomed)

    def test_fallback_journal_reaches_parent(self):
        # The volatile channel always falls back statically, so each
        # cell journals one reason in whichever process ran it; at
        # workers=2 only the shipped events can put it in the parent.
        specs = [
            CellSpec(cell_id=f"volatile/{index}", variant=variant,
                     channel="volatile", predictor="lvp", n_runs=4)
            for index, variant in enumerate(("Train + Test", "Test + Hit"))
        ]
        policy = ExecutionPolicy(backend="batched")
        journals = {}
        for workers in (1, 2):
            clear_fallback_journal()
            run_cells(specs, None, policy, workers=workers)
            journals[workers] = sorted(fallback_journal())
        assert journals[1] == journals[2]
        assert [reason for _, reason in journals[2]] == (
            ["channel volatile needs SMT co-runners"] * len(specs)
        )

    def test_rejects_bad_worker_count(self, tmp_path):
        with pytest.raises(HarnessError):
            run_cells([], None, workers=0)


class TestCellDeadline:
    """``--cell-timeout`` is the pool's deadline: it applies to every
    cell the pool runs, a lone one too, and to none run in-process."""

    def test_in_process_cell_has_no_deadline(self):
        spec = sweep_specs(["fig5"], n_runs=4, seed=0)[0]
        cells = run_cells([spec], None, workers=1, cell_timeout_s=0.001)
        assert cells[spec.cell_id].result is not None

    def test_lone_pooled_cell_is_lost_at_the_deadline(self, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "all", "--out", str(tmp_path), "--artifacts", "fig7",
            "--workers", "2", "--cell-timeout", "0.001",
        ]) == 1
        assert "cell 'fig7/rsa' lost" in capsys.readouterr().err


class TestJournalReads:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_resume_validates_each_journaled_cell_once(
        self, tmp_path, monkeypatch, workers
    ):
        kwargs = dict(n_runs=4, seed=0, artifacts=["fig5"], workers=workers)
        run_all(str(tmp_path), **kwargs)
        reads = []
        validated = CheckpointStore._validated_record

        def spy(self, path):
            reads.append(os.path.basename(path))
            return validated(self, path)

        monkeypatch.setattr(CheckpointStore, "_validated_record", spy)
        run_all(str(tmp_path), resume=True, **kwargs)
        assert sorted(reads) == sorted(
            f"{spec.cell_id.replace('/', '-')}.json"
            for spec in sweep_specs(["fig5"])
        )


class TestRunAllParallel:
    def _artifact_digests(self, out_dir):
        digests = {}
        for name in sorted(os.listdir(out_dir)):
            path = os.path.join(out_dir, name)
            if os.path.isfile(path):
                with open(path, "rb") as handle:
                    digests[name] = hashlib.sha256(
                        handle.read()
                    ).hexdigest()
        return digests

    def test_run_all_byte_identical_across_workers(self, tmp_path):
        kwargs = dict(n_runs=4, seed=0, artifacts=["fig5", "table3"])
        serial_dir = tmp_path / "serial"
        par_dir = tmp_path / "par"
        serial_dir.mkdir()
        par_dir.mkdir()
        run_all(str(serial_dir), **kwargs)
        run_all(str(par_dir), workers=2, **kwargs)
        assert (self._artifact_digests(serial_dir)
                == self._artifact_digests(par_dir))

    def test_crash_resume_under_crash_faults_matches_serial(self, tmp_path):
        """Mid-sweep crash + --resume with workers under injected crashes.

        A partial parallel run stands in for the crash: the journal
        holds some cells, the process died, and the resumed parallel
        run must complete the sweep byte-identically to an uninterrupted
        serial run under the same fault profile.
        """
        kwargs = dict(n_runs=4, seed=0, artifacts=["fig5"],
                      fault_profile_name="crash")
        serial_dir = tmp_path / "serial"
        serial_dir.mkdir()
        run_all(str(serial_dir), **kwargs)

        resumed_dir = tmp_path / "resumed"
        resumed_dir.mkdir()
        specs = sweep_specs(["fig5"], n_runs=4, seed=0)
        # "Crash" after the first half of the cells is journaled.
        from repro._version import __version__

        partial = CheckpointStore.open(
            str(resumed_dir / "checkpoint"),
            {"version": __version__, "n_runs": 4, "seed": 0,
             "fault_profile": "crash"},
            resume=False,
        )
        # The default policy is the one run_all supervises with, so the
        # journaled half retries/escalates exactly as the uninterrupted
        # run would.
        run_cells(
            specs[: len(specs) // 2], partial, ExecutionPolicy(),
            workers=2, fault_profile=fault_profile("crash"), fault_seed=0,
        )
        run_all(str(resumed_dir), resume=True, workers=2, **kwargs)
        assert (self._artifact_digests(serial_dir)
                == self._artifact_digests(resumed_dir))


class TestDefaultWorkers:
    def test_unset_means_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert default_workers() == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert default_workers() == 3

    def test_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(HarnessError):
            default_workers()
        monkeypatch.setenv(WORKERS_ENV, "0")
        with pytest.raises(HarnessError):
            default_workers()


class TestReseedCellMixing:
    def test_attempt_zero_preserves_base_seed(self):
        assert reseed(42, 0) == 42
        assert reseed(42, 0, cell_index=cell_seed_index("a/b")) == 42

    def test_cells_decorrelate_retry_streams(self):
        index_a = cell_seed_index("table3/direct/tw_vp")
        index_b = cell_seed_index("table3/spill-over/tw_vp")
        assert index_a != index_b
        streams_a = [reseed(7, k, index_a) for k in range(1, 5)]
        streams_b = [reseed(7, k, index_b) for k in range(1, 5)]
        assert streams_a != streams_b

    def test_cell_index_is_stable(self):
        assert cell_seed_index("fig7/rsa") == cell_seed_index("fig7/rsa")
