"""Deterministic fault injection for the resilient execution layer.

Robustness has to be testable to be trusted: this module provides
seeded injectors that perturb the measurement pipeline the way a real
evaluation machine would — noisier DRAM latency distributions, lost or
duplicated timing samples, corrupted Value Prediction Table entries —
plus simulated executor crashes that exercise the retry and
checkpoint-resume machinery end to end.

Every fault draw is derived from ``(profile, base seed, cell id,
attempt)`` with a stable hash, so a faulty run is exactly
reproducible: the same profile and seed perturb the same cells in the
same way, on every machine, every time.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import FaultInjectionError, InjectedCrashError
from repro.memory.memsys import DramConfig
from repro.vp.base import AccessKey, Prediction, ValuePredictor

_RATE_FIELDS = (
    "sample_drop_rate", "sample_dup_rate", "vp_corrupt_rate", "crash_rate",
    "worker_kill_rate",
)


@dataclass(frozen=True)
class FaultProfile:
    """One named set of fault-injection parameters.

    Attributes:
        name: Registry key, also used in the fault RNG derivation.
        dram_jitter_scale: Multiplier on ``DramConfig.jitter``.
        dram_tail_boost: Added to ``DramConfig.tail_probability``
            (clamped to 1.0).
        dram_tail_extra_scale: Multiplier on ``DramConfig.tail_extra``.
        sample_drop_rate: Probability of dropping each timing sample.
        sample_dup_rate: Probability of duplicating each timing sample.
        vp_corrupt_rate: Probability, per predictor training event, of
            corrupting the value installed in the VP table entry.
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
            and all, until the supervisor kills it (redispatches
            succeed).
    """

    name: str
    dram_jitter_scale: float = 1.0
    dram_tail_boost: float = 0.0
    dram_tail_extra_scale: float = 1.0
    sample_drop_rate: float = 0.0
    sample_dup_rate: float = 0.0
    vp_corrupt_rate: float = 0.0
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
        for field_name in ("dram_jitter_scale", "dram_tail_extra_scale"):
            if getattr(self, field_name) < 0.0:
                raise FaultInjectionError(f"{field_name} must be >= 0")
        if self.dram_tail_boost < 0.0:
            raise FaultInjectionError("dram_tail_boost must be >= 0")

    @property
    def perturbs_dram(self) -> bool:
        """True when the profile changes the DRAM latency model."""
        return (
            self.dram_jitter_scale != 1.0
            or self.dram_tail_boost != 0.0
            or self.dram_tail_extra_scale != 1.0
        )

    @property
    def perturbs_samples(self) -> bool:
        """True when the profile drops or duplicates timing samples."""
        return self.sample_drop_rate > 0.0 or self.sample_dup_rate > 0.0

    @property
    def perturbs_process(self) -> bool:
        """True when the profile injects process-level worker faults."""
        return (
            self.worker_kill_rate > 0.0
            or bool(self.kill_cells)
            or bool(self.hang_cells)
        )


#: Built-in profiles, from benign to chaotic.
PROFILES: Dict[str, FaultProfile] = {
    profile.name: profile
    for profile in (
        FaultProfile(name="none"),
        FaultProfile(
            name="dram-noise",
            dram_jitter_scale=2.5,
            dram_tail_boost=0.08,
            dram_tail_extra_scale=2.0,
        ),
        FaultProfile(name="sample-loss", sample_drop_rate=0.15,
                     sample_dup_rate=0.05),
        FaultProfile(name="vp-corruption", vp_corrupt_rate=0.02),
        FaultProfile(name="crash", crash_rate=0.25),
        FaultProfile(
            name="chaos",
            dram_jitter_scale=1.8,
            dram_tail_boost=0.05,
            sample_drop_rate=0.08,
            sample_dup_rate=0.04,
            vp_corrupt_rate=0.01,
            crash_rate=0.15,
        ),
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


class CorruptingPredictor(ValuePredictor):
    """Wraps a predictor, corrupting trained values at a seeded rate.

    Models bit-flips / cross-context interference in the VP table
    (predictor state is fragile under squash storms — cf. the
    value-recomputation literature): with probability ``rate`` each
    training event installs a perturbed value instead of the actual
    one, so later predictions from that entry verify incorrectly.
    """

    def __init__(self, inner: ValuePredictor, rate: float,
                 rng: random.Random) -> None:
        super().__init__()
        self.inner = inner
        self.rate = rate
        self._rng = rng
        self.corruptions = 0
        self.name = f"{inner.name}+corrupt"

    def predict(self, key: AccessKey) -> Optional[Prediction]:
        return self.inner.predict(key)

    def train(self, key: AccessKey, actual_value: int,
              prediction: Optional[Prediction] = None) -> None:
        if self.rate and self._rng.random() < self.rate:
            actual_value ^= 1 << self._rng.randrange(64)
            self.corruptions += 1
        self.inner.train(key, actual_value, prediction)

    def reset(self) -> None:
        self.inner.reset()


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
        supervisor's retry path is deterministic and testable.  Unlike
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

    # -- DRAM latency perturbation -------------------------------------
    def perturb_dram(self, config: DramConfig) -> DramConfig:
        """Widen the DRAM latency distribution per the profile."""
        if not self.profile.perturbs_dram:
            return config
        return replace(
            config,
            jitter=int(round(config.jitter * self.profile.dram_jitter_scale)),
            tail_probability=min(
                1.0, config.tail_probability + self.profile.dram_tail_boost
            ),
            tail_extra=int(round(
                config.tail_extra * self.profile.dram_tail_extra_scale
            )),
        )

    # -- timing-sample corruption --------------------------------------
    def corrupt_samples(
        self, samples: Sequence[float], cell_id: str, attempt: int,
        stream: str,
    ) -> List[float]:
        """Drop and/or duplicate timing samples, deterministically.

        Models a receiver losing measurements (pre-empted between
        ``rdtsc`` pairs) or double-reading them.  May return fewer
        samples than given — possibly too few for the t-test, which is
        exactly the degraded path the executor must survive.
        """
        if not self.profile.perturbs_samples:
            return list(samples)
        rng = self.rng("samples", cell_id, attempt, stream)
        out: List[float] = []
        for value in samples:
            if self.profile.sample_drop_rate and (
                rng.random() < self.profile.sample_drop_rate
            ):
                continue
            out.append(value)
            if self.profile.sample_dup_rate and (
                rng.random() < self.profile.sample_dup_rate
            ):
                out.append(value)
        return out

    # -- VP table corruption -------------------------------------------
    def wrap_predictor(self, predictor: ValuePredictor, cell_id: str,
                       attempt: int) -> ValuePredictor:
        """Wrap ``predictor`` so trained entries corrupt at the rate."""
        if not self.profile.vp_corrupt_rate:
            return predictor
        return CorruptingPredictor(
            predictor,
            self.profile.vp_corrupt_rate,
            self.rng("vp", cell_id, attempt),
        )


def no_faults() -> FaultInjector:
    """An injector that never perturbs anything."""
    return FaultInjector(PROFILES["none"], seed=0)
