"""Process-level fault tolerance of the supervised sweep engine.

The worker pool's contracts, exercised through ``run_cells`` and the
CLI:

* a worker killed or hung mid-cell is redispatched and the journal
  payloads stay byte-identical to a clean serial run (process faults
  never perturb the simulation — unlike cell-level retries, which
  deliberately reseed);
* a cell that exhausts its dispatch budget fails the sweep loudly
  instead of vanishing;
* SIGINT mid-sweep leaves completed cells journaled and raises
  ``KeyboardInterrupt`` (the CLI exits 130), and a resumed run
  finishes the sweep byte-identically;
* no worker outlives a sweep, however it ends.
"""

from __future__ import annotations

import filecmp
import hashlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.errors import HarnessError
from repro.harness.checkpoint import CheckpointStore
from repro.harness.faults import FaultProfile, fault_profile
from repro.harness.parallel import run_cells, sweep_specs
from repro.harness.runner import CellClassification, ExecutionPolicy

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


class TestProcessFaultsAreInvisible:
    def test_worker_kill_rate_byte_identical_to_serial(self, tmp_path):
        specs = sweep_specs(["fig5"], n_runs=4, seed=0)
        _, clean = _run(tmp_path, specs, "clean", workers=1)
        _, chaotic = _run(
            tmp_path, specs, "chaotic", workers=2,
            fault_profile=fault_profile("worker-kill"), fault_seed=3,
        )
        assert _digest(clean) == _digest(chaotic)
        assert multiprocessing.active_children() == []

    def test_deterministic_hang_recovers_byte_identical(self, tmp_path):
        specs = sweep_specs(["fig5"], n_runs=4, seed=0)
        profile = FaultProfile(
            name="test-hang", hang_cells=(specs[0].cell_id,)
        )
        _, clean = _run(tmp_path, specs, "clean", workers=1)
        cells, hung = _run(
            tmp_path, specs, "hung", workers=2,
            fault_profile=profile, cell_timeout_s=30.0,
        )
        assert _digest(clean) == _digest(hung)
        assert all(cell.classification is not CellClassification.FAILED
                   for cell in cells.values())

    def test_exhausted_dispatch_budget_fails_loudly(self, tmp_path):
        # Every dispatch of every cell is killed, all five of them.
        specs = sweep_specs(["fig5"], n_runs=4, seed=0)
        profile = FaultProfile(name="test-kill-all", worker_kill_rate=1.0)
        store = CheckpointStore.open(
            str(tmp_path / "checkpoint"), dict(META), resume=False
        )
        with pytest.raises(HarnessError, match="lost after 5 dispatch"):
            run_cells(
                specs, store, ExecutionPolicy(), workers=2,
                fault_profile=profile,
            )
        assert multiprocessing.active_children() == []
        assert store.completed_cells() == []


class TestSigintMidSweep:
    def test_interrupt_flushes_journal_and_resume_completes(
        self, tmp_path, journaled_ids
    ):
        # Eight cells on two workers: with only four, the rest could
        # all finish before the interrupt lands, leaving nothing to
        # resume.
        specs = sweep_specs(["fig5", "fig8"], n_runs=4, seed=0)
        _, reference = _run(tmp_path, specs, "reference", workers=1)

        store = CheckpointStore.open(
            str(tmp_path / "interrupted" / "checkpoint"), dict(META),
            resume=False,
        )
        save = store.save

        def save_then_interrupt(cell_id, payload):
            # A Ctrl-C on the main thread right after the first cell
            # journals: exactly what a Ctrl-C mid-sweep looks like.
            save(cell_id, payload)
            os.kill(os.getpid(), signal.SIGINT)

        store.save = save_then_interrupt
        with pytest.raises(KeyboardInterrupt):
            run_cells(specs, store, ExecutionPolicy(), workers=2)
        assert multiprocessing.active_children() == []
        flushed = [
            spec.cell_id for spec in specs if store.has(spec.cell_id)
        ]
        assert flushed, "interrupt lost the already-completed cells"
        assert len(flushed) < len(specs), "nothing was left to resume"
        # The flushed records are byte-identical to the reference ones.
        for cell_id in flushed:
            assert _digest(store.load(cell_id)) \
                == _digest(reference[cell_id])

        # --resume path: reopen the same journal and finish the sweep.
        resumed = CheckpointStore.open(
            str(tmp_path / "interrupted" / "checkpoint"), dict(META),
            resume=True,
        )
        saved = journaled_ids(resumed)
        run_cells(specs, resumed, ExecutionPolicy(), workers=2)
        # Only the cells the interrupt stopped ran again.
        assert sorted(saved) == sorted(
            spec.cell_id for spec in specs if spec.cell_id not in flushed
        )
        final = {
            spec.cell_id: resumed.load(spec.cell_id) for spec in specs
        }
        assert _digest(final) == _digest(reference)

    def test_sigint_handler_restored_after_sweep(self, tmp_path):
        # The pool installs no handler at all: the one in force while
        # cells journal is the one the sweep started with.
        specs = sweep_specs(["fig5"], n_runs=4, seed=0)[:2]
        before = signal.getsignal(signal.SIGINT)
        store = CheckpointStore.open(
            str(tmp_path / "checkpoint"), dict(META), resume=False
        )
        handlers = []
        save = store.save

        def save_and_look(cell_id, payload):
            handlers.append(signal.getsignal(signal.SIGINT))
            save(cell_id, payload)

        store.save = save_and_look
        run_cells(specs, store, ExecutionPolicy(), workers=2)
        assert handlers == [before] * len(specs)
        assert signal.getsignal(signal.SIGINT) is before
        assert multiprocessing.active_children() == []


class TestCliInterrupt:
    """``repro all --workers 2`` under a Ctrl-C, end to end."""

    #: Scalar keeps the sweep running well past its first journaled
    #: cell, whatever ``$REPRO_BACKEND`` says.
    ARGV = ["all", "--workers", "2", "--runs", "20", "--seed", "1",
            "--artifacts", "fig5,fig8,table3", "--backend", "scalar"]

    @staticmethod
    def _repro(out, *extra):
        """The ``python -m repro`` command line writing into ``out``,
        and its environment."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (
            str(Path(repro.__file__).resolve().parent.parent),
            env.get("PYTHONPATH"),
        )))
        out.mkdir(exist_ok=True)
        argv = [sys.executable, "-m", "repro", *TestCliInterrupt.ARGV,
                "--out", str(out), *extra]
        return argv, env

    @staticmethod
    def _finish(out, *extra):
        argv, env = TestCliInterrupt._repro(out, *extra)
        done = subprocess.run(
            argv, env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr

    @staticmethod
    def _processes_naming(text):
        """Pids of live processes whose command line contains ``text``."""
        pids = []
        for entry in Path("/proc").glob("[0-9]*"):
            try:
                cmdline = (entry / "cmdline").read_bytes()
            except OSError:
                continue  # it exited while we looked
            if text.encode() in cmdline:
                pids.append(int(entry.name))
        return pids

    def test_ctrl_c_exits_130_and_resume_matches(self, tmp_path):
        out = tmp_path / "interrupted"
        argv, env = self._repro(out)
        sweep = subprocess.Popen(
            argv, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        try:
            cells = out / "checkpoint" / "cells"
            deadline = time.monotonic() + 120.0
            while not list(cells.glob("*.json")):
                assert sweep.poll() is None, "the sweep ended unjournaled"
                assert time.monotonic() < deadline, "no cell was journaled"
                time.sleep(0.01)
            sweep.send_signal(signal.SIGINT)
            _, err = sweep.communicate(timeout=60)
        finally:
            sweep.kill()
        assert sweep.returncode == 130, err
        assert "interrupted: journal flushed" in err
        if Path("/proc").is_dir():
            assert self._processes_naming(str(out)) == []

        self._finish(out, "--resume")
        reference = tmp_path / "reference"
        self._finish(reference)
        written = sorted(
            path.name for path in reference.iterdir() if path.is_file()
        )
        assert len(written) == 7
        _, mismatch, errors = filecmp.cmpfiles(
            reference, out, written, shallow=False,
        )
        assert (mismatch, errors) == ([], [])
