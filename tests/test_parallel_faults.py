"""Process-level fault tolerance of the supervised sweep engine.

The supervised pool's contracts, exercised through ``run_cells``:

* a worker killed or hung mid-cell is redispatched and the journal
  payloads stay byte-identical to a clean serial run (process faults
  never perturb the simulation — unlike cell-level retries, which
  deliberately reseed);
* a cell that exhausts its dispatch budget fails the sweep loudly
  instead of vanishing;
* SIGINT mid-sweep cancels outstanding cells, leaves completed ones
  journaled, raises ``KeyboardInterrupt``, and a resumed run finishes
  the sweep byte-identically.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal

import pytest

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
    cells = run_cells(specs, store, ExecutionPolicy.compat(), **kwargs)
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
        specs = sweep_specs(["fig5"], n_runs=4, seed=0)
        profile = FaultProfile(
            name="test-hang", hang_cells=(specs[0].cell_id,)
        )
        store = CheckpointStore.open(
            str(tmp_path / "checkpoint"), dict(META), resume=False
        )
        with pytest.raises(HarnessError, match="lost"):
            run_cells(
                specs, store, ExecutionPolicy.compat(), workers=2,
                fault_profile=profile, max_dispatches=1,
            )


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
        fired = []

        def interrupt_once(message: str) -> None:
            # Fires on the main thread after the first cell journals:
            # exactly what a Ctrl-C mid-sweep looks like.
            if not fired:
                fired.append(message)
                os.kill(os.getpid(), signal.SIGINT)

        with pytest.raises(KeyboardInterrupt):
            run_cells(
                specs, store, ExecutionPolicy.compat(), workers=2,
                progress=interrupt_once,
            )
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
        run_cells(specs, resumed, ExecutionPolicy.compat(), workers=2)
        # Only the cells the interrupt cancelled ran again.
        assert sorted(saved) == sorted(
            spec.cell_id for spec in specs if spec.cell_id not in flushed
        )
        final = {
            spec.cell_id: resumed.load(spec.cell_id) for spec in specs
        }
        assert _digest(final) == _digest(reference)

    def test_sigint_handler_restored_after_sweep(self, tmp_path):
        specs = sweep_specs(["fig5"], n_runs=4, seed=0)[:2]
        before = signal.getsignal(signal.SIGINT)
        store = CheckpointStore.open(
            str(tmp_path / "checkpoint"), dict(META), resume=False
        )
        run_cells(specs, store, ExecutionPolicy.compat(), workers=2)
        assert signal.getsignal(signal.SIGINT) is before
