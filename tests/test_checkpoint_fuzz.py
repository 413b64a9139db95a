"""Torn-write and bit-flip fuzzing of the checkpoint journal.

The integrity contract: a journal damaged outside the atomic-write
protocol is *detected*, never trusted.  ``has()`` quarantines the
damaged record and reports the cell missing so ``--resume``
deterministically replays it; a direct ``load()`` fails loudly; and
the replayed record is byte-identical to the pre-damage original.
Silent corruption — a damaged record parsing as valid and feeding a
wrong verdict downstream — is the one outcome that must be impossible.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import HarnessError
from repro.harness.checkpoint import CheckpointStore, payload_crc32
from repro.harness.parallel import run_cells, sweep_specs
from repro.harness.runner import ExecutionPolicy

META = {"version": "test", "n_runs": 4, "seed": 0}

PAYLOAD = {
    "cell_id": "fuzz/cell",
    "execution": {"classification": "clean", "attempts": 1},
    "result": {"kind": "experiment", "samples": [1.0, 2.5, 3.25]},
}


def _store(tmp_path, name="checkpoint"):
    return CheckpointStore.open(
        str(tmp_path / name), dict(META), resume=False
    )


def _record_path(store, cell_id="fuzz/cell"):
    (path,) = [
        os.path.join(store.cells_dir, name)
        for name in os.listdir(store.cells_dir)
        if name.endswith(".json") and "manifest" not in name
    ]
    return path


class TestTornWrites:
    def test_truncation_at_every_prefix_is_caught(self, tmp_path):
        """A torn record never loads — at any truncation point."""
        store = _store(tmp_path)
        store.save("fuzz/cell", PAYLOAD)
        path = _record_path(store)
        original = open(path, "rb").read()
        # Every prefix short of the full file is a possible torn write.
        for cut in range(0, len(original), max(1, len(original) // 40)):
            with open(path, "wb") as handle:
                handle.write(original[:cut])
            assert store.has("fuzz/cell") is False, f"cut={cut} trusted"
            quarantined = path + ".corrupt"
            assert os.path.exists(quarantined), f"cut={cut} not aside"
            os.remove(quarantined)
            # Replay: resave and verify the journal heals byte-identically.
            store.save("fuzz/cell", PAYLOAD)
            assert open(path, "rb").read() == original
        assert store.load("fuzz/cell") == PAYLOAD

    def test_direct_load_of_torn_record_fails_loudly(self, tmp_path):
        store = _store(tmp_path)
        store.save("fuzz/cell", PAYLOAD)
        path = _record_path(store)
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])
        with pytest.raises(HarnessError):
            store.load("fuzz/cell")
        assert os.path.exists(path + ".corrupt")


class TestBitFlips:
    def test_single_bit_flips_never_load_silently(self, tmp_path):
        """Flip one bit at a stride of offsets; every damaged record is
        either rejected (quarantined) or — only when the flip landed in
        JSON whitespace/formatting — still carries the exact original
        payload.  A wrong payload accepted as valid fails the test.
        """
        store = _store(tmp_path)
        store.save("fuzz/cell", PAYLOAD)
        path = _record_path(store)
        original = open(path, "rb").read()
        accepted_unscathed = 0
        rejected = 0
        for offset in range(0, len(original), 7):
            for bit in (0, 3, 7):
                flipped = bytearray(original)
                flipped[offset] ^= 1 << bit
                with open(path, "wb") as handle:
                    handle.write(bytes(flipped))
                if store.has("fuzz/cell"):
                    # The flip must have been semantically invisible
                    # (e.g. indentation): the loaded payload must still
                    # be the exact original.
                    assert store.load("fuzz/cell") == PAYLOAD
                    accepted_unscathed += 1
                else:
                    rejected += 1
                    os.remove(path + ".corrupt")
                # Heal for the next iteration.
                with open(path, "wb") as handle:
                    handle.write(original)
        assert rejected > 0  # the CRC actually did work
        # Sanity: most flips hit meaningful bytes.
        assert rejected > accepted_unscathed

    def test_crc_guards_payload_not_formatting(self):
        assert payload_crc32({"a": 1, "b": 2}) == payload_crc32(
            {"b": 2, "a": 1}
        )
        assert payload_crc32({"a": 1}) != payload_crc32({"a": 2})

    def test_unstamped_record_is_quarantined(self, tmp_path):
        """Every record is stamped, so one without a stamp is damaged
        (a flipped bit in the ``"integrity"`` key itself reads this
        way) and is replayed rather than trusted."""
        store = _store(tmp_path)
        store.save("fuzz/cell", PAYLOAD)
        path = _record_path(store)
        record = json.load(open(path))
        record.pop("integrity")
        with open(path, "w") as handle:
            json.dump(record, handle)
        assert store.has("fuzz/cell") is False
        assert os.path.exists(path + ".corrupt")
        assert not os.path.exists(path)


class TestResumeAfterDamage:
    def test_resume_replays_damaged_cell_byte_identically(
        self, tmp_path, journaled_ids
    ):
        """End to end: corrupt one journaled cell, resume the sweep.

        The damaged cell is quarantined and recomputed; every file in
        the resumed journal ends up byte-identical to the undamaged
        reference journal.
        """
        specs = sweep_specs(["fig5"], n_runs=4, seed=0)

        def journal_bytes(store):
            return {
                name: open(os.path.join(store.cells_dir, name), "rb").read()
                for name in sorted(os.listdir(store.cells_dir))
                if name.endswith(".json")
            }

        reference = _store(tmp_path, "reference")
        run_cells(specs, reference, ExecutionPolicy.compat())
        victim = _store(tmp_path, "victim")
        run_cells(specs, victim, ExecutionPolicy.compat())
        assert journal_bytes(reference) == journal_bytes(victim)

        # Flip one payload bit in one record of the victim journal.
        target = os.path.join(
            victim.cells_dir,
            next(name for name in sorted(os.listdir(victim.cells_dir))
                 if name.endswith(".json") and "manifest" not in name),
        )
        data = bytearray(open(target, "rb").read())
        damaged = json.loads(bytes(data))["cell_id"]
        probe = data.index(b"samples") + 20
        data[probe] ^= 0x10
        with open(target, "wb") as handle:
            handle.write(bytes(data))

        # Resume: exactly one cell recomputes, journal heals.
        saved = journaled_ids(victim)
        run_cells(specs, victim, ExecutionPolicy.compat())
        assert saved == [damaged]
        healed = {
            name: blob for name, blob in journal_bytes(victim).items()
            if not name.endswith(".corrupt")
        }
        assert healed == journal_bytes(reference)
