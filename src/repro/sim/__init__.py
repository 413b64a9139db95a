"""Simulation backends: how an experiment's trials get executed.

The :class:`SimBackend` protocol abstracts the *trial loop* of an
experiment — given an :class:`~repro.core.attack.AttackRunner` and a
range of trial indices, produce the canonical stream of
``(mapped, unmapped)`` :class:`~repro.core.attack.TrialResult` pairs.
Two implementations ship:

``scalar``
    The reference backend: the exact interleaved
    :meth:`~repro.core.attack.AttackRunner.run_trial` loop the package
    has always run.  Always available; always the default.

``batched``
    A structure-of-arrays lockstep backend (:mod:`repro.sim.batched`)
    that simulates many trials of one cell program simultaneously with
    numpy lane vectors, byte-identical to ``scalar`` by construction
    and verified per trial by the cross-backend identity suite.  Needs
    numpy (the ``repro[batch]`` extra); configurations outside its
    native envelope fall back to ``scalar`` per chunk with the reason
    journaled (:func:`fallback_journal`).

Backend selection is threaded from the CLI / environment down to the
runner: ``--backend`` → :class:`~repro.harness.runner.ExecutionPolicy`
→ :class:`~repro.core.attack.AttackConfig.backend` →
:func:`resolve_backend_name` (which also honours ``$REPRO_BACKEND``)
→ :func:`get_backend`.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.errors import BackendUnavailableError, SimBackendError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.attack import AttackRunner, TrialResult
    from typing import Protocol

    class SimBackend(Protocol):
        """Executes a range of an experiment's trial schedule."""

        name: str

        def run_pairs(
            self, runner: "AttackRunner", start: int, stop: int
        ) -> List[Tuple["TrialResult", "TrialResult"]]:
            """Trials ``start .. stop-1``, as (mapped, unmapped) pairs."""


#: Environment variable consulted when no explicit backend is given.
BACKEND_ENV = "REPRO_BACKEND"

#: The always-available reference backend.
DEFAULT_BACKEND = "scalar"


def _load_scalar() -> "SimBackend":
    from repro.sim.scalar import ScalarBackend

    return ScalarBackend()


def _load_batched() -> "SimBackend":
    from repro.sim.batched import BatchedBackend

    return BatchedBackend()


_LOADERS: Dict[str, Callable[[], "SimBackend"]] = {
    "scalar": _load_scalar,
    "batched": _load_batched,
}

#: Names accepted by ``--backend`` / ``$REPRO_BACKEND``.
BACKEND_NAMES: Tuple[str, ...] = tuple(sorted(_LOADERS))


def resolve_backend_name(explicit: Optional[str] = None) -> str:
    """The backend name to use: explicit > ``$REPRO_BACKEND`` > scalar.

    Raises :class:`~repro.errors.SimBackendError` for unknown names so
    a typo fails loudly instead of silently running the default.
    """
    name = explicit
    if name is None:
        env = os.environ.get(BACKEND_ENV, "").strip()
        name = env or DEFAULT_BACKEND
    if name not in _LOADERS:
        raise SimBackendError(
            f"unknown simulation backend {name!r}; "
            f"expected one of {', '.join(BACKEND_NAMES)}"
        )
    return name


def get_backend(name: str) -> "SimBackend":
    """Instantiate a backend by name.

    The batched backend raises
    :class:`~repro.errors.BackendUnavailableError` here — at selection
    time, not first use — when numpy is missing.
    """
    if name not in _LOADERS:
        raise SimBackendError(
            f"unknown simulation backend {name!r}; "
            f"expected one of {', '.join(BACKEND_NAMES)}"
        )
    return _LOADERS[name]()


# ---------------------------------------------------------------------------
# Fallback journal
# ---------------------------------------------------------------------------
# The batched backend records every scalar fallback here so "it ran,
# but not vectorized" is an observable fact rather than a silent perf
# cliff.  Process-local and deterministic: entries are (cell
# description, reason) tuples in occurrence order.

_FALLBACK_JOURNAL: List[Tuple[str, str]] = []


def journal_fallback(cell: str, reason: str) -> None:
    """Record one batched→scalar fallback (kept process-local)."""
    _FALLBACK_JOURNAL.append((cell, reason))


def fallback_journal() -> List[Tuple[str, str]]:
    """A copy of the process's batched→scalar fallback records."""
    return list(_FALLBACK_JOURNAL)


def clear_fallback_journal() -> None:
    """Forget recorded fallbacks (test isolation)."""
    _FALLBACK_JOURNAL.clear()


def record_fallbacks(events: List[Tuple[str, str]]) -> None:
    """Merge fallback events shipped from another process's journal.

    Sweep workers (``--workers``) run the batched backend in their own
    processes; their journals are process-local.  The parent calls
    this with each worker result's shipped events so the sweep-wide
    journal (and anything reporting on it) sees every fallback, not
    just the parent's.
    """
    _FALLBACK_JOURNAL.extend(
        (str(cell), str(reason)) for cell, reason in events
    )


__all__ = [
    "BACKEND_ENV",
    "BACKEND_NAMES",
    "BackendUnavailableError",
    "DEFAULT_BACKEND",
    "SimBackend",
    "SimBackendError",
    "clear_fallback_journal",
    "fallback_journal",
    "get_backend",
    "journal_fallback",
    "record_fallbacks",
    "resolve_backend_name",
]
