"""Atomic artifact writes and checkpoint/resume for experiment sweeps.

Two concerns live here:

* **Atomic writes** — every artifact and journal record is written to
  a ``*.tmp`` sibling and ``os.replace``d into place, so a crash at
  any instant leaves either the old file or the new one, never a
  truncated JSON trail.
* **The checkpoint store** — a run directory journaling one file per
  completed experiment cell, plus a manifest binding the journal to
  its run parameters.  An interrupted Table III sweep resumes from the
  last completed cell: journaled cells are reloaded verbatim (full
  sample sets, so p-values and reports reproduce byte-identically) and
  only the missing cells re-run.

Every record carries an integrity stamp (CRC-32 over the canonicalised
payload), so a journal damaged *outside* the atomic-write protocol — a
torn write on a dying filesystem, a flipped bit at rest — is detected
on read instead of trusted; a record without a stamp counts as
damaged.  :meth:`CheckpointStore.has` quarantines a
damaged record (rename to ``*.corrupt``) and reports the cell missing,
so ``--resume`` deterministically replays it; a direct
:meth:`CheckpointStore.load` of a damaged record fails loudly.  Never
silently corrupted artifacts.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from typing import Dict, List

from repro.core.attack import ExperimentResult
from repro.core.channels import ChannelType
from repro.core.model import AttackCategory
from repro.crypto.leak import RsaAttackResult
from repro.errors import HarnessError
from repro.stats.distributions import TimingDistribution
from repro.stats.summary import DistributionComparison

#: Journal format version; bumped on incompatible payload changes.
#: Version 2: every record is integrity-stamped, and an escalated
#: fixed-N cell journals only the attempt that produced it.
CHECKPOINT_VERSION = 2


# ----------------------------------------------------------------------
# Atomic write primitives
# ----------------------------------------------------------------------

def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp + rename).

    Raises:
        HarnessError: If the parent directory does not exist.
    """
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise HarnessError(f"output directory {directory!r} does not exist")
    tmp_path = path + ".tmp"
    with open(tmp_path, "w") as handle:
        handle.write(text)
        if not text.endswith("\n"):
            handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)


def atomic_write_json(path: str, payload: object) -> None:
    """Write ``payload`` as pretty-printed JSON, atomically."""
    atomic_write_text(
        path, json.dumps(payload, indent=2, sort_keys=True)
    )


# ----------------------------------------------------------------------
# Result (de)serialisation — full fidelity, including samples
# ----------------------------------------------------------------------

def serialize_experiment(result: ExperimentResult) -> Dict[str, object]:
    """A JSON payload from which the result reconstructs exactly."""
    return {
        "kind": "experiment",
        "variant": result.variant_name,
        "category": result.category.value,
        "channel": result.channel.value,
        "predictor": result.predictor_name,
        "defense": result.defense_name,
        "mapped_samples": [float(v) for v in result.comparison.mapped.samples],
        "unmapped_samples": [
            float(v) for v in result.comparison.unmapped.samples
        ],
        "mapped_label": result.comparison.mapped.label,
        "unmapped_label": result.comparison.unmapped.label,
        "mean_trial_cycles": float(result.mean_trial_cycles),
        "transmission_rate_kbps": float(result.transmission_rate_kbps),
    }


def deserialize_experiment(payload: Dict[str, object]) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from its journal payload.

    The t-test is recomputed from the journaled samples, so the
    p-value is bit-identical to the original run's.
    """
    mapped = TimingDistribution(
        str(payload.get("mapped_label", "mapped")),
        [float(v) for v in payload["mapped_samples"]],
    )
    unmapped = TimingDistribution(
        str(payload.get("unmapped_label", "unmapped")),
        [float(v) for v in payload["unmapped_samples"]],
    )
    return ExperimentResult(
        variant_name=str(payload["variant"]),
        category=AttackCategory(payload["category"]),
        channel=ChannelType(payload["channel"]),
        predictor_name=str(payload["predictor"]),
        defense_name=str(payload["defense"]),
        comparison=DistributionComparison.compare(mapped, unmapped),
        mean_trial_cycles=float(payload["mean_trial_cycles"]),
        transmission_rate_kbps=float(payload["transmission_rate_kbps"]),
    )


def serialize_rsa(result: RsaAttackResult) -> Dict[str, object]:
    """Journal payload for the Figure 7 RSA run."""
    return {
        "kind": "rsa",
        "observations": [float(v) for v in result.observations],
        "decoded_bits": [int(b) for b in result.decoded_bits],
        "true_bits": [int(b) for b in result.true_bits],
        "threshold": float(result.threshold),
        "success_rate": float(result.success_rate),
        "transmission_rate_kbps": float(result.transmission_rate_kbps),
    }


def deserialize_rsa(payload: Dict[str, object]) -> RsaAttackResult:
    """Rebuild an :class:`RsaAttackResult` from its journal payload."""
    return RsaAttackResult(
        observations=[float(v) for v in payload["observations"]],
        decoded_bits=[int(b) for b in payload["decoded_bits"]],
        true_bits=[int(b) for b in payload["true_bits"]],
        threshold=float(payload["threshold"]),
        success_rate=float(payload["success_rate"]),
        transmission_rate_kbps=float(payload["transmission_rate_kbps"]),
    )


def serialize_result(result: object) -> Dict[str, object]:
    """Dispatch on result type."""
    if isinstance(result, ExperimentResult):
        return serialize_experiment(result)
    if isinstance(result, RsaAttackResult):
        return serialize_rsa(result)
    raise HarnessError(
        f"cannot journal result of type {type(result).__name__}"
    )


def deserialize_result(payload: Dict[str, object]) -> object:
    """Inverse of :func:`serialize_result`."""
    kind = payload.get("kind")
    if kind == "experiment":
        return deserialize_experiment(payload)
    if kind == "rsa":
        return deserialize_rsa(payload)
    raise HarnessError(f"unknown journaled result kind {kind!r}")


# ----------------------------------------------------------------------
# The checkpoint store
# ----------------------------------------------------------------------

_SAFE = re.compile(r"[^A-Za-z0-9._-]+")


def _cell_filename(cell_id: str) -> str:
    return _SAFE.sub("-", cell_id) + ".json"


def payload_crc32(payload: Dict[str, object]) -> int:
    """CRC-32 over the canonical (sorted-keys) JSON of ``payload``."""
    return zlib.crc32(
        json.dumps(payload, sort_keys=True).encode()
    ) & 0xFFFFFFFF


class CheckpointStore:
    """Journal of completed experiment cells under one run directory.

    Layout::

        <run_dir>/manifest.json        run parameters + format version
        <run_dir>/cells/<cell>.json    one record per completed cell

    Every write is atomic.  ``open`` with ``resume=True`` validates
    that the manifest's parameters match the requested run (resuming
    under different seeds or run counts would silently mix
    incompatible measurements); without ``resume`` any existing
    journal is cleared.
    """

    def __init__(self, run_dir: str) -> None:
        self.run_dir = run_dir
        self.cells_dir = os.path.join(run_dir, "cells")
        self.manifest_path = os.path.join(run_dir, "manifest.json")

    # -- lifecycle -----------------------------------------------------
    @classmethod
    def open(
        cls,
        run_dir: str,
        meta: Dict[str, object],
        resume: bool = False,
    ) -> "CheckpointStore":
        """Create (or reopen for resume) the store at ``run_dir``."""
        store = cls(run_dir)
        os.makedirs(store.cells_dir, exist_ok=True)
        manifest = {
            "checkpoint_version": CHECKPOINT_VERSION,
            **{key: meta[key] for key in sorted(meta)},
        }
        if resume and os.path.exists(store.manifest_path):
            with open(store.manifest_path) as handle:
                existing = json.load(handle)
            if existing != manifest:
                mismatched = sorted(
                    key for key in set(existing) | set(manifest)
                    if existing.get(key) != manifest.get(key)
                )
                raise HarnessError(
                    "cannot resume: checkpoint manifest does not match "
                    f"this run (differing keys: {mismatched})"
                )
            return store
        store.clear()
        atomic_write_json(store.manifest_path, manifest)
        return store

    def clear(self) -> None:
        """Remove every journaled cell (fresh run), quarantines too."""
        if os.path.isdir(self.cells_dir):
            for name in os.listdir(self.cells_dir):
                if name.endswith((".json", ".json.corrupt")):
                    os.unlink(os.path.join(self.cells_dir, name))

    # -- per-cell journal ----------------------------------------------
    def _cell_path(self, cell_id: str) -> str:
        return os.path.join(self.cells_dir, _cell_filename(cell_id))

    def _validated_record(self, path: str) -> Dict[str, object]:
        """The verified payload at ``path`` (integrity stamp stripped).

        Raises:
            HarnessError: Unparseable JSON, a non-object record, a
                missing integrity stamp or a CRC mismatch — i.e. any
                damage the atomic-write protocol cannot have produced
                on its own.
        """
        try:
            with open(path) as handle:
                record = json.load(handle)
        except (OSError, ValueError) as error:
            raise HarnessError(
                f"corrupt checkpoint record {path!r}: {error}"
            ) from None
        if not isinstance(record, dict):
            raise HarnessError(
                f"corrupt checkpoint record {path!r}: not a JSON object"
            )
        integrity = record.pop("integrity", None)
        expected = (
            integrity.get("crc32") if isinstance(integrity, dict) else None
        )
        actual = payload_crc32(record)
        if expected != actual:
            raise HarnessError(
                f"corrupt checkpoint record {path!r}: CRC mismatch "
                f"(stamped {expected}, computed {actual})"
            )
        return record

    def _quarantine(self, path: str) -> str:
        """Move a damaged record aside so it is never trusted again."""
        corrupt_path = path + ".corrupt"
        try:
            os.replace(path, corrupt_path)
        except OSError:
            pass
        return corrupt_path

    def has(self, cell_id: str) -> bool:
        """True when ``cell_id`` has a *valid* journaled record.

        A record that fails validation (torn write, bit flip) is
        quarantined to ``*.corrupt`` and reported missing, so resume
        deterministically replays the cell instead of trusting damaged
        measurements.
        """
        path = self._cell_path(cell_id)
        if not os.path.exists(path):
            return False
        try:
            self._validated_record(path)
        except HarnessError:
            self._quarantine(path)
            return False
        return True

    def save(self, cell_id: str, payload: Dict[str, object]) -> None:
        """Journal one completed cell atomically, integrity-stamped."""
        record = dict(payload)
        record["integrity"] = {"crc32": payload_crc32(payload)}
        atomic_write_json(self._cell_path(cell_id), record)

    def load(self, cell_id: str) -> Dict[str, object]:
        """Load one journaled cell record (integrity verified).

        Raises:
            HarnessError: When the cell was never journaled, or its
                record is damaged — the damaged file is quarantined
                and the error says so loudly.
        """
        path = self._cell_path(cell_id)
        if not os.path.exists(path):
            raise HarnessError(f"no checkpoint for cell {cell_id!r}")
        try:
            return self._validated_record(path)
        except HarnessError as error:
            quarantined = self._quarantine(path)
            raise HarnessError(
                f"cell {cell_id!r}: {error}; quarantined to "
                f"{quarantined!r}"
            ) from None

    def completed_cells(self) -> List[str]:
        """Journaled cell ids (by sanitised filename), sorted."""
        if not os.path.isdir(self.cells_dir):
            return []
        return sorted(
            name[:-len(".json")]
            for name in os.listdir(self.cells_dir)
            if name.endswith(".json")
        )
