"""Deterministic fault injection for the resilient execution layer.

Robustness has to be testable to be trusted: this module provides
seeded injectors that crash an experiment cell's attempt, or kill or
hang the worker process running it, so the retry, redispatch and
checkpoint-resume machinery is exercised end to end.  No fault touches
the simulation: a recovered cell's result is a pure function of the
trial seeds its successful attempt recorded, the same randomness
contract as an unfaulted run.

Every fault draw is derived from ``(profile, base seed, cell id,
attempt)`` with a stable hash, so a faulty run is exactly
reproducible: the same profile and seed fault the same cells in the
same way, on every machine, every time.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import FaultInjectionError, InjectedCrashError

_RATE_FIELDS = ("crash_rate", "worker_kill_rate")


@dataclass(frozen=True)
class FaultProfile:
    """One named set of fault-injection parameters.

    Attributes:
        name: Registry key, also used in the fault RNG derivation.
        crash_rate: Probability of an injected executor crash per cell
            attempt.
        crash_cells: Cell ids that crash deterministically on their
            first attempt (retries succeed) — the knob the resume
            tests are built on.
        worker_kill_rate: Probability, per (task, dispatch), that the
            worker *process* running the task dies abruptly
            (``os._exit``, simulating an OOM-kill / segfault) before
            producing a result.  Process-level faults never perturb
            the simulation itself: a redispatch of the same task is
            byte-identical to an unfaulted run.
        kill_cells: Task ids whose first dispatch is killed
            deterministically (redispatches succeed).
        hang_cells: Task ids whose first dispatch hangs
            deterministically — the worker process freezes, heartbeats
            and all, until the pool's heartbeat deadline lapses and
            :func:`repro.harness.supervisor.run_pool` kills it
            (redispatches succeed).
    """

    name: str
    crash_rate: float = 0.0
    crash_cells: Tuple[str, ...] = ()
    worker_kill_rate: float = 0.0
    kill_cells: Tuple[str, ...] = ()
    hang_cells: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for field_name in _RATE_FIELDS:
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise FaultInjectionError(
                    f"{field_name} must be in [0, 1], got {value}"
                )

    @property
    def perturbs_process(self) -> bool:
        """True when the profile injects process-level worker faults."""
        return (
            self.worker_kill_rate > 0.0
            or bool(self.kill_cells)
            or bool(self.hang_cells)
        )


#: Built-in profiles.
PROFILES: Dict[str, FaultProfile] = {
    profile.name: profile
    for profile in (
        FaultProfile(name="none"),
        # A crashed attempt retries under a reseeded attempt, whose
        # trials follow the per-trial seed schedule from its seed.
        FaultProfile(name="crash", crash_rate=0.25),
        # A process-level profile: it perturbs worker *processes*, never
        # the simulation, so recovered results stay byte-identical to a
        # clean run — the invariant the parallel fault tests assert.
        FaultProfile(name="worker-kill", worker_kill_rate=0.4),
    )
}


def fault_profile(name: str) -> FaultProfile:
    """Look up a built-in profile by name.

    Raises:
        FaultInjectionError: For unknown profile names.
    """
    try:
        return PROFILES[name]
    except KeyError:
        raise FaultInjectionError(
            f"unknown fault profile {name!r}; "
            f"choose from {sorted(PROFILES)}"
        ) from None


class FaultInjector:
    """Applies one :class:`FaultProfile` deterministically.

    All hooks take the ``(cell_id, attempt)`` coordinates of the work
    being perturbed; together with the injector's base seed they fully
    determine every fault drawn, independent of call order.
    """

    def __init__(self, profile: FaultProfile, seed: int = 0) -> None:
        self.profile = profile
        self.seed = seed

    def rng(self, *scope: object) -> random.Random:
        """A generator keyed to ``(profile, seed, *scope)``."""
        material = "|".join(
            [self.profile.name, str(self.seed)] + [str(s) for s in scope]
        )
        digest = hashlib.blake2b(material.encode(), digest_size=8).digest()
        return random.Random(int.from_bytes(digest, "big"))

    # -- executor crashes ----------------------------------------------
    def maybe_crash(self, cell_id: str, attempt: int) -> None:
        """Raise :class:`InjectedCrashError` when the profile says so."""
        if cell_id in self.profile.crash_cells and attempt == 0:
            raise InjectedCrashError(
                f"injected crash in cell {cell_id!r} (attempt {attempt})"
            )
        if self.profile.crash_rate:
            if self.rng("crash", cell_id, attempt).random() < self.profile.crash_rate:
                raise InjectedCrashError(
                    f"injected crash in cell {cell_id!r} (attempt {attempt})"
                )

    # -- process-level worker faults -----------------------------------
    def process_fault(self, task_id: str, dispatch: int) -> Optional[str]:
        """The worker-process fault for one ``(task, dispatch)``, if any.

        Returns ``"kill"``, ``"hang"`` or ``None``.  The
        draw is keyed by ``(profile, seed, task_id, dispatch)`` so a
        redispatched task sees a fresh, order-independent draw — the
        pool's redispatch path is deterministic and testable.  Unlike
        :meth:`maybe_crash` (which aborts an *attempt* inside the cell,
        changing its retry seed), a process fault is invisible to the
        simulation: the redispatch reruns the identical task.
        """
        if not self.profile.perturbs_process:
            return None
        if dispatch == 0:
            if task_id in self.profile.kill_cells:
                return "kill"
            if task_id in self.profile.hang_cells:
                return "hang"
        rng = self.rng("process", task_id, dispatch)
        if self.profile.worker_kill_rate and (
            rng.random() < self.profile.worker_kill_rate
        ):
            return "kill"
        return None


def no_faults() -> FaultInjector:
    """An injector that never perturbs anything."""
    return FaultInjector(PROFILES["none"], seed=0)
