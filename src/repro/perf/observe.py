"""Wall-clock observation and benchmark snapshot persistence.

This module is the *only* sanctioned home for host-time reads in the
sweep path.  Host time never influences a simulated measurement — the
simulator's clock is its own cycle counter — so the determinism lint
allows the reads here explicitly via pragmas.  Everything that touches
results (seeds, latencies, thresholds) stays wall-clock free.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional

from repro.harness.checkpoint import atomic_write_json


def now() -> float:
    """Monotonic host timestamp in seconds (reporting only)."""
    return time.perf_counter()  # lint: allow(wall-clock)


@dataclass
class Stopwatch:
    """Accumulating stopwatch for throughput reporting.

    Use as a context manager around units of work; ``elapsed`` sums
    every timed region.  Purely observational: nothing simulated ever
    reads it.
    """

    elapsed: float = 0.0
    laps: int = 0
    _started: Optional[float] = field(default=None, repr=False)

    def __enter__(self) -> "Stopwatch":
        self._started = now()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        assert self._started is not None
        self.elapsed += now() - self._started
        self._started = None
        self.laps += 1


def write_bench_snapshot(
    path: Path,
    section: str,
    payload: Dict[str, Any],
) -> Dict[str, Any]:
    """Merge ``payload`` under ``section`` into a benchmark JSON file.

    Existing sections from earlier runs are preserved, so each bench
    records its own section and they accumulate in one snapshot.
    Writing is atomic (tmp + replace) so an interrupted bench never
    corrupts a previous snapshot.  Returns the merged document.
    """
    document: Dict[str, Any] = {}
    if path.exists():
        try:
            document = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            document = {}
    if not isinstance(document, dict):
        document = {}
    document[section] = payload
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_json(str(path), document)
    return document


#: Root-level perf-trajectory artifact shared by the sweep benches
#: (``BENCH_sweep.json`` at the repository root).
SWEEP_TRAJECTORY = Path(__file__).resolve().parents[3] / "BENCH_sweep.json"

#: Environment override equivalent to ``force=True`` — the ``--force``
#: of bench invocations that go through pytest and can't take flags.
BENCH_FORCE_ENV = "REPRO_BENCH_FORCE"

#: Fractional drop in a throughput metric that counts as a regression.
REGRESSION_THRESHOLD = 0.20

#: "Higher is better" keys compared between the old and new record of
#: a section when deciding whether an overwrite is a regression.
_THROUGHPUT_KEYS = ("cells_per_s", "trials_per_s")


class BenchRegressionError(RuntimeError):
    """Refusing to overwrite a bench record with a >20% regression.

    Raised by :func:`write_sweep_trajectory` so a slow run can't
    silently replace a previously published number; pass ``force=True``
    (or set ``$REPRO_BENCH_FORCE``) to record the regression anyway.
    """


def _regressions(
    old: Dict[str, Any], new: Dict[str, Any]
) -> Dict[str, str]:
    """Throughput keys where ``new`` regressed >20% against ``old``.

    Only compares records from the same backend: a scalar re-run of a
    batched section is a different experiment, not a regression, and
    is allowed to replace the record (with its backend stamped).
    """
    if old.get("backend") != new.get("backend"):
        return {}
    found: Dict[str, str] = {}
    keys = list(_THROUGHPUT_KEYS)
    keys += [key for key in new if key.startswith("speedup")]
    for key in keys:
        before, after = old.get(key), new.get(key)
        if not isinstance(before, (int, float)):
            continue
        if not isinstance(after, (int, float)) or before <= 0:
            continue
        if after < before * (1.0 - REGRESSION_THRESHOLD):
            found[key] = f"{before:.4g} -> {after:.4g}"
    return found


def write_sweep_trajectory(
    section: str,
    payload: Dict[str, Any],
    path: Optional[Path] = None,
    *,
    backend: Optional[str] = None,
    trials: Optional[int] = None,
    force: bool = False,
) -> Dict[str, Any]:
    """Record one bench's sweep-level numbers in ``BENCH_sweep.json``.

    Wrapper over :func:`write_bench_snapshot` targeting the root-level
    perf-trajectory artifact, so every sweep bench reports through one
    schema (documented in ``docs/ARCHITECTURE.md``): each section
    carries at least ``wall_clock_s``, ``cells`` and ``cells_per_s``;
    trial-level benches add ``trials_simulated`` / ``trials_avoided``
    and the sequential benches their fixed-N-vs-sequential speedup.

    Two invariants keep the records honest:

    * every entry is stamped with the simulation ``backend`` that
      produced it and its ``trials`` count (``backend`` defaults to the
      resolved :mod:`repro.sim` backend; ``trials`` falls back to
      ``payload["trials_simulated"]`` and a missing count is an error);
    * overwriting a same-backend entry whose throughput metrics
      (``cells_per_s``, ``trials_per_s``, any ``speedup*``) dropped
      more than 20% raises :class:`BenchRegressionError` unless
      ``force=True`` or ``$REPRO_BENCH_FORCE`` is set, so one slow host
      run can't silently bury a published number.
    """
    import os

    if backend is None:
        backend = payload.get("backend")
    if backend is None:
        from repro.sim import resolve_backend_name

        backend = resolve_backend_name(None)
    if trials is None:
        raw = payload.get("trials", payload.get("trials_simulated"))
        trials = int(raw) if raw is not None else None
    if trials is None:
        raise ValueError(
            f"bench section {section!r} has no trial count; pass "
            "trials= (or include 'trials_simulated' in the payload) so "
            "the record says how much work backed the number"
        )
    record = {**payload, "backend": backend, "trials": trials}

    target = path or SWEEP_TRAJECTORY
    force = force or bool(os.environ.get(BENCH_FORCE_ENV, "").strip())
    if not force and target.exists():
        try:
            existing = json.loads(target.read_text())
        except (OSError, json.JSONDecodeError):
            existing = {}
        old = existing.get(section) if isinstance(existing, dict) else None
        if isinstance(old, dict):
            regressed = _regressions(old, record)
            if regressed:
                details = ", ".join(
                    f"{key}: {delta}" for key, delta in regressed.items()
                )
                raise BenchRegressionError(
                    f"refusing to overwrite {section!r} in {target}: "
                    f">{REGRESSION_THRESHOLD:.0%} regression ({details}); "
                    f"re-run with --force (${BENCH_FORCE_ENV}=1) to "
                    "record it anyway"
                )
    return write_bench_snapshot(target, section, record)
