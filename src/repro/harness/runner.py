"""The resilient execution layer: supervised experiment cells.

The paper's headline artifacts are statistical sweeps — Table III runs
all twelve attack variants across channels and predictors with
100-run t-tests — and a single noisy cell, hung simulation or crash
mid-sweep must not lose the run.  Every experiment cell measures
through one protocol, :func:`run_sequential_cell`, and
:class:`ResilientExecutor` wraps it with:

* **retry with reseeding** — any :class:`~repro.errors.ReproError`
  raised by a cell (including injected crashes and watchdog aborts) is
  retried up to ``max_retries`` times, each attempt under a
  deterministically derived fresh seed;
* a **per-trial watchdog** — ``max_trial_cycles`` is threaded into the
  core's ``max_cycles`` bound, so a runaway simulation aborts with
  :class:`~repro.errors.SimulationError`;
* **adaptive re-measurement** — when a t-test lands in an
  inconclusive band around ``ALPHA``, the cell *extends* its sample in
  place (all prior trials are kept and more are drawn from the same
  per-trial seed schedule) instead of reporting a flaky verdict;
* **group-sequential early stopping** — opt-in via
  :class:`SequentialPolicy`: each cell is examined at pre-registered
  interim looks against an alpha-spending boundary
  (:mod:`repro.stats.sequential`), stopping as soon as the verdict is
  decisive.  Without it a cell runs the one-look design
  ``SequentialDesign(looks=(n_runs,))``, the paper's fixed-N t-test;
* **checkpoint/resume** — completed cells are journaled atomically to
  a :class:`~repro.harness.checkpoint.CheckpointStore`, and re-running
  a sweep over the same store reuses every journaled cell verbatim.

Every cell carries a **failure classification** into its artifact
record: ``clean`` (first attempt, no intervention), ``retried``
(recovered after retries or escalation), ``degraded`` (a result whose
p-value stayed inconclusive after every extension) or ``failed`` (no
result).  A retried cell's result is a pure function of the seed its
successful attempt recorded: injected faults crash attempts, they
never perturb a measurement.
"""

from __future__ import annotations

import copy
import functools
import re
import zlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.attack import AttackRunner, ExperimentResult
from repro.core.channels import ChannelType
from repro.core.variants import AttackVariant
from repro.crypto.leak import RsaAttackConfig, RsaVpAttack
from repro.crypto.mpi import Mpi
from repro.errors import HarnessError, ReproError
from repro.harness.checkpoint import (
    CheckpointStore,
    deserialize_result,
    serialize_result,
)
from repro.harness.faults import FaultInjector
from repro.memory.hierarchy import MemoryConfig
from repro.perf.counters import COUNTERS
from repro.stats.sequential import (
    DEFAULT_LOOK_FRACTIONS,
    GroupSequentialTest,
    MIN_LOOK_TRIALS,
    SequentialDesign,
    default_looks,
)
from repro.stats.ttest import ALPHA


def reseed(base_seed: int, attempt: int, cell_index: int = 0) -> int:
    """Deterministic per-attempt seed; attempt 0 is the base seed.

    ``cell_index`` decorrelates retry streams between cells: the whole
    sweep shares one base seed, so without it every cell's attempt-1
    seed would be identical — correlated retry noise that a parallel
    run (which executes cells in arbitrary order) would bake into the
    artifacts.  Pass a stable per-cell value
    (:func:`cell_seed_index` of the cell id); attempt 0 always returns
    the base seed so first attempts match the historical serial
    behaviour.
    """
    if attempt == 0:
        return base_seed
    return (
        base_seed * 1_000_003 + attempt * 7_919_993 + cell_index * 65_537
    ) % 2_147_483_647


def cell_seed_index(cell_id: str) -> int:
    """A stable small integer derived from a cell id (for reseeding)."""
    return zlib.crc32(cell_id.encode("utf-8"))


class CellClassification(str, Enum):
    """Failure classification attached to every artifact record."""

    CLEAN = "clean"
    RETRIED = "retried"
    DEGRADED = "degraded"
    FAILED = "failed"


@dataclass(frozen=True)
class RetryPolicy:
    """Per-cell retry behaviour.

    Attributes:
        max_retries: Retries after the first attempt (0 = fail fast).
    """

    max_retries: int = 2

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise HarnessError("max_retries must be >= 0")


@dataclass(frozen=True)
class AdaptivePolicy:
    """Re-measurement escalation around the significance threshold.

    A p-value inside ``[band_low, band_high)`` is *inconclusive*: too
    close to ``ALPHA`` for the verdict to be trusted at the current
    sample size.  :func:`run_sequential_cell` then extends the sample
    by ``escalation_factor`` (up to ``max_escalations`` times) instead
    of reporting a flaky verdict.
    """

    band_low: float = ALPHA / 2
    band_high: float = ALPHA * 2
    escalation_factor: int = 2
    max_escalations: int = 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.band_low < self.band_high <= 1.0:
            raise HarnessError(
                "inconclusive band must satisfy 0 <= low < high <= 1"
            )
        if self.escalation_factor < 2:
            raise HarnessError("escalation_factor must be >= 2")
        if self.max_escalations < 0:
            raise HarnessError("max_escalations must be >= 0")

    def inconclusive(self, pvalue: float) -> bool:
        """True when the verdict should not be trusted yet."""
        return self.band_low <= pvalue < self.band_high


@dataclass(frozen=True)
class SequentialPolicy:
    """Group-sequential early stopping for experiment cells.

    Each cell's requested ``n_runs`` becomes the hard cap of a
    group-sequential design (:class:`repro.stats.sequential.SequentialDesign`):
    trials stream in boundary-aligned batches and the cell stops as
    soon as an interim look crosses the alpha-spending boundary.  The
    final look applies the paper's plain fixed-N criterion by default,
    so a cell that never stops early reports exactly the fixed-N
    verdict.

    Attributes:
        look_fractions: Interim-look schedule as fractions of
            ``n_runs`` (used when ``looks`` is unset); the default is
            the classic 20/40/60/80/100% five-look plan.
        looks: Explicit cumulative trial counts instead of fractions.
            Counts at or above a cell's ``n_runs`` are dropped and the
            cap itself is always appended, so one schedule serves
            sweeps with mixed per-cell budgets.
        alpha: Overall significance level.
    """

    look_fractions: Tuple[float, ...] = DEFAULT_LOOK_FRACTIONS
    looks: Optional[Tuple[int, ...]] = None
    alpha: float = ALPHA

    def __post_init__(self) -> None:
        if self.looks is not None:
            if not self.looks:
                raise HarnessError("explicit looks must be non-empty")
            if any(n < MIN_LOOK_TRIALS for n in self.looks):
                raise HarnessError(
                    f"every look needs >= {MIN_LOOK_TRIALS} trials, "
                    f"got {self.looks}"
                )
            if any(b <= a for a, b in zip(self.looks, self.looks[1:])):
                raise HarnessError(
                    f"looks must be strictly increasing, got {self.looks}"
                )
        if not self.look_fractions:
            raise HarnessError("look_fractions must be non-empty")

    def design_for(self, n_runs: int) -> SequentialDesign:
        """The concrete design for a cell with cap ``n_runs``."""
        if self.looks is not None:
            counts = tuple(n for n in self.looks if n < n_runs) + (n_runs,)
        else:
            counts = default_looks(n_runs, self.look_fractions)
        return SequentialDesign(looks=counts, alpha=self.alpha)

    def to_meta(self) -> Dict[str, object]:
        """JSON-safe settings record (checkpoint-manifest comparable)."""
        return {
            "look_fractions": list(self.look_fractions),
            "looks": list(self.looks) if self.looks is not None else None,
            "alpha": self.alpha,
            "spending": "obrien-fleming",
            "final_level": "fixed-n",
        }


@dataclass(frozen=True)
class ExecutionPolicy:
    """Everything the supervised executor enforces per cell.

    Attributes:
        retry: Retry behaviour.
        adaptive: Optional inconclusive-band re-measurement: the
            escalation keeps all prior trials and extends the sample.
        sequential: Optional group-sequential early stopping
            (:class:`SequentialPolicy`); ``None`` runs every cell as
            the one-look fixed-N design.
        max_trial_cycles: Per-trial watchdog, threaded into the core's
            ``max_cycles`` bound.
        preflight: Statically validate each cell with
            :func:`repro.analysis.preflight.preflight_cell` before its
            first attempt, raising
            :class:`~repro.errors.AnalysisError` on contradictions so
            no simulation budget is spent on a doomed cell.  Cached
            (resumed) cells are never re-analysed.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    adaptive: Optional[AdaptivePolicy] = None
    sequential: Optional[SequentialPolicy] = None
    max_trial_cycles: Optional[int] = None
    #: Simulation backend for every cell's trial loop (repro.sim);
    #: ``None`` follows ``$REPRO_BACKEND`` and defaults to scalar.
    #: Explicit per-cell ``backend`` overrides still win.
    backend: Optional[str] = None
    preflight: bool = True
    #: Treat a static/dynamic verdict disagreement as a hard
    #: :class:`~repro.errors.AnalysisSoundnessError` instead of a
    #: report-time warning.  Applies after the cell completes (cached
    #: cells included: the journaled preflight record is compared
    #: against the journaled dynamic verdict).
    strict_preflight: bool = False

    @classmethod
    def compat(cls) -> "ExecutionPolicy":
        """Behaviour-preserving policy: retries only on error.

        Used by the plain :mod:`repro.harness.experiment` drivers so
        their results stay identical to the pre-supervision harness
        unless something actually goes wrong.
        """
        return cls()

    @classmethod
    def robust(cls, max_retries: int = 2) -> "ExecutionPolicy":
        """The full-sweep policy: retries plus adaptive re-measurement."""
        return cls(
            retry=RetryPolicy(max_retries=max_retries),
            adaptive=AdaptivePolicy(),
        )


@dataclass
class AttemptRecord:
    """One attempt at one cell."""

    attempt: int
    seed: int
    n_runs: Optional[int]
    error: Optional[str] = None
    error_type: Optional[str] = None

    def to_payload(self) -> Dict[str, object]:
        return {
            "attempt": self.attempt,
            "seed": self.seed,
            "n_runs": self.n_runs,
            # Retries never wait; the key stays so records keep their shape.
            "backoff_s": 0.0,
            "error": self.error,
            "error_type": self.error_type,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "AttemptRecord":
        return cls(
            attempt=int(payload["attempt"]),
            seed=int(payload["seed"]),
            n_runs=(None if payload.get("n_runs") is None
                    else int(payload["n_runs"])),
            error=payload.get("error"),
            error_type=payload.get("error_type"),
        )


@dataclass
class SequentialOutcome:
    """What one attempt at an experiment cell produced.

    Returned by :func:`run_sequential_cell`; the executor's
    :meth:`ResilientExecutor.supervise` unwraps it transparently, so
    ``attempt_fn`` callables may return either a plain result or one
    of these.

    Attributes:
        result: The experiment result over every trial actually
            streamed (its t-test covers the full collected sample, so
            ``attack_succeeds`` stays the authoritative verdict).
        record: JSON-safe look trajectory / boundary record; the
            executor journals it with a sequential cell and carries it
            into the cell's artifact record.
        extensions: Adaptive inconclusive-band extensions performed
            (counted as escalations by the executor).
        note: Degradation reason when the cell stayed inconclusive
            after every extension (empty otherwise).
    """

    result: ExperimentResult
    record: Dict[str, object]
    extensions: int = 0
    note: str = ""

    @property
    def effective_n(self) -> int:
        """Trials per hypothesis actually simulated."""
        return int(self.record["effective_n"])


def run_sequential_cell(
    runner: AttackRunner,
    design: SequentialDesign,
    adaptive: Optional[AdaptivePolicy] = None,
) -> SequentialOutcome:
    """Measure one cell: stream its trials through a sequential design.

    The one protocol every experiment cell measures through.  Trials
    advance in boundary-aligned batches via
    :meth:`~repro.core.attack.AttackRunner.run_incremental`; after each
    scheduled look the interim p-value is fed to the alpha-spending
    boundary and the cell stops on the first decisive look.  A fixed-N
    cell is the one-look design ``SequentialDesign(looks=(n_runs,))``,
    whose single look is the paper's plain ``p < alpha`` t-test.  When
    the final look lands in the adaptive policy's inconclusive band,
    the sample is *extended* — all prior trials are kept and more are
    drawn from the same per-trial seed schedule — up to
    ``adaptive.max_escalations`` times.

    Deterministic: the trials simulated depend only on the runner's
    seed/config, the design, and the adaptive band.
    """
    experiment = runner.run_incremental()
    test = GroupSequentialTest(design)
    state = None
    # Pull exactly what each look demands (SequentialDesign.next_demand
    # is the admission contract demand-driven lane schedulers honour).
    while (demand := design.next_demand(experiment.trials_done)) > 0:
        state = experiment.advance(experiment.trials_done + demand)
        COUNTERS.sequential_looks += 1
        if test.decide(state.comparison.pvalue).decision != "continue":
            break
    assert state is not None  # designs always have >= 1 look

    trials_avoided = 0
    if test.stopped_early:
        trials_avoided = 2 * (design.n_max - experiment.trials_done)
        COUNTERS.sequential_early_stops += 1
        COUNTERS.sequential_trials_avoided += trials_avoided
        COUNTERS.sequential_cycles_avoided += int(
            trials_avoided * state.mean_trial_cycles
        )

    extensions = 0
    extension_records: List[Dict[str, object]] = []
    note = ""
    if (
        not test.stopped_early
        and adaptive is not None
        and adaptive.inconclusive(state.comparison.pvalue)
    ):
        while extensions < adaptive.max_escalations:
            reused = 2 * experiment.trials_done
            target = experiment.trials_done * adaptive.escalation_factor
            state = experiment.advance(target)
            extensions += 1
            COUNTERS.escalation_trials_reused += reused
            extension_records.append({
                "n": target,
                "pvalue": state.comparison.pvalue,
                "trials_reused": reused,
            })
            if not adaptive.inconclusive(state.comparison.pvalue):
                break
        if adaptive.inconclusive(state.comparison.pvalue):
            note = (
                f"p-value {state.comparison.pvalue:.4f} still "
                f"inconclusive after {extensions} escalation(s)"
            )

    record: Dict[str, object] = {
        "design": design.to_payload(),
        "looks": [look.to_payload() for look in test.looks],
        "extensions": extension_records,
        "stopped_early": test.stopped_early,
        "planned_n": design.n_max,
        "effective_n": experiment.trials_done,
        "trials_avoided": trials_avoided,
    }
    return SequentialOutcome(
        result=experiment.result(),
        record=record,
        extensions=extensions,
        note=note,
    )


@dataclass
class SupervisedCell:
    """Outcome of one supervised cell: result + execution metadata."""

    cell_id: str
    result: Optional[object]
    classification: CellClassification
    attempts: List[AttemptRecord] = field(default_factory=list)
    escalations: int = 0
    note: str = ""
    #: Static preflight classification payload
    #: (:meth:`repro.analysis.preflight.PreflightReport.to_payload`),
    #: journaled with the cell so resumed runs stay byte-identical.
    preflight: Optional[Dict[str, object]] = None
    #: Group-sequential look trajectory / boundary record
    #: (:attr:`SequentialOutcome.record`); ``None`` for fixed-N cells,
    #: and omitted from journal payloads then so fixed-N journals stay
    #: byte-identical with historical runs.
    sequential: Optional[Dict[str, object]] = None

    @property
    def final_attempt(self) -> Optional[AttemptRecord]:
        """The attempt that produced the result (last successful one)."""
        for record in reversed(self.attempts):
            if record.error is None:
                return record
        return None

    def execution_record(self) -> Dict[str, object]:
        """The failure-classification payload carried by artifacts."""
        final = self.final_attempt
        return {
            "classification": self.classification.value,
            "attempts": [record.to_payload() for record in self.attempts],
            "escalations": self.escalations,
            "final_seed": final.seed if final else None,
            "final_n_runs": final.n_runs if final else None,
            "note": self.note,
        }

    def to_payload(self) -> Dict[str, object]:
        """Checkpoint-journal payload (atomic JSON)."""
        payload: Dict[str, object] = {
            "cell_id": self.cell_id,
            "execution": self.execution_record(),
            "result": (
                serialize_result(self.result)
                if self.result is not None else None
            ),
            "preflight": self.preflight,
        }
        if self.sequential is not None:
            payload["sequential"] = self.sequential
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "SupervisedCell":
        execution = payload.get("execution", {})
        return cls(
            cell_id=str(payload["cell_id"]),
            result=(
                deserialize_result(payload["result"])
                if payload.get("result") is not None else None
            ),
            classification=CellClassification(
                execution.get("classification", "clean")
            ),
            attempts=[
                AttemptRecord.from_payload(record)
                for record in execution.get("attempts", [])
            ],
            escalations=int(execution.get("escalations", 0)),
            note=str(execution.get("note", "")),
            preflight=payload.get("preflight"),
            sequential=payload.get("sequential"),
        )


@functools.lru_cache(maxsize=256)
def _passing_preflight(
    variant: AttackVariant, channel: ChannelType, predictor: str,
    **kwargs: object,
) -> Dict[str, object]:
    """The payload of a passing :func:`preflight_cell`, memoized.

    The analysis never sees the seed, so without a memo every sweep
    repeats it for every cell.  The memo is per process rather than
    per executor because each sweep (each ``run_cells`` call) builds
    its own executor.  It is keyed on the variant (by identity, so the
    shared ``ALL_VARIANTS`` instances hit), channel, predictor name and
    the ``confidence``, ``chain_length``, ``modify_mode`` and
    ``layout`` overrides.  A failing preflight raises, and
    ``lru_cache`` stores nothing for a call that raised, so a failure
    is re-analysed and raised again on every call.  Callers must copy
    the payload before handing it on.
    """
    from repro.analysis.preflight import preflight_cell

    report = preflight_cell(variant, channel, predictor=predictor, **kwargs)
    report.raise_if_failed()
    return report.to_payload()


class ResilientExecutor:
    """Supervises experiment cells per an :class:`ExecutionPolicy`."""

    def __init__(
        self,
        policy: Optional[ExecutionPolicy] = None,
        injector: Optional[FaultInjector] = None,
        store: Optional[CheckpointStore] = None,
    ) -> None:
        self.policy = policy or ExecutionPolicy.compat()
        self.injector = injector
        self.store = store

    # ------------------------------------------------------------------
    def supervise(
        self,
        cell_id: str,
        attempt_fn: Callable[[int, Optional[int]], object],
        *,
        seed: int,
        n_runs: Optional[int] = None,
        preflight: Optional[Dict[str, object]] = None,
    ) -> SupervisedCell:
        """Run one cell under the retry policy; never raises a ReproError.

        The executor only retries: each attempt runs under a fresh seed
        (:func:`reseed`), injected crashes land before the attempt, and
        the outcome is classified and journaled.  Escalation is the
        attempt's own business — :func:`run_sequential_cell` extends
        its sample in place and reports the extensions.

        Args:
            cell_id: Stable identifier (also the checkpoint key).
            attempt_fn: ``(seed, n_runs) -> result``; ``n_runs`` is
                ``None`` for cells without a sample count (Figure 7).
                A :class:`SequentialOutcome` is unwrapped into its
                result, escalations and note.
            seed: Base seed; retries derive fresh seeds from it.
            n_runs: Requested sample count, passed to every attempt.
            preflight: Static-classification payload to attach to (and
                journal with) the cell.
        """
        if self.store is not None and self.store.has(cell_id):
            return SupervisedCell.from_payload(self.store.load(cell_id))

        attempts: List[AttemptRecord] = []
        cell_index = cell_seed_index(cell_id)
        for attempt in range(self.policy.retry.max_retries + 1):
            record = AttemptRecord(
                attempt=attempt, seed=reseed(seed, attempt, cell_index),
                n_runs=n_runs,
            )
            attempts.append(record)
            try:
                if self.injector is not None:
                    self.injector.maybe_crash(cell_id, attempt)
                result = attempt_fn(record.seed, n_runs)
            except ReproError as error:
                record.error = str(error)
                record.error_type = type(error).__name__
                continue

            cell = SupervisedCell(
                cell_id=cell_id, result=result,
                classification=CellClassification.CLEAN,
                attempts=attempts, preflight=preflight,
            )
            if isinstance(result, SequentialOutcome):
                record.n_runs = result.effective_n
                cell.result = result.result
                cell.escalations = result.extensions
                cell.note = result.note
                if self.policy.sequential is not None:
                    # A fixed-N cell journals no look trajectory.
                    cell.sequential = result.record
            if cell.note:
                cell.classification = CellClassification.DEGRADED
            elif attempt or cell.escalations:
                cell.classification = CellClassification.RETRIED
            if self.store is not None:
                self.store.save(cell_id, cell.to_payload())
            return cell

        # Failed cells are not journaled: a resumed run should
        # re-attempt them rather than pin the failure forever.
        return SupervisedCell(
            cell_id=cell_id, result=None,
            classification=CellClassification.FAILED, attempts=attempts,
            note=f"gave up after {len(attempts)} failed attempts",
            preflight=preflight,
        )

    # ------------------------------------------------------------------
    def run_cell_supervised(
        self,
        cell_id: str,
        variant: AttackVariant,
        channel: ChannelType,
        predictor: str,
        n_runs: int = 100,
        seed: int = 0,
        **overrides,
    ) -> SupervisedCell:
        """Supervised version of :func:`repro.harness.experiment.run_cell`.

        When :attr:`ExecutionPolicy.preflight` is set (the default),
        the cell is first validated statically — an
        :class:`~repro.errors.AnalysisError` aborts the cell before any
        simulation budget is spent.  Cells already present in the
        checkpoint store skip the analysis (their journaled payload,
        including the stored preflight record, is reused verbatim so
        resumed artifacts stay byte-identical).

        Every attempt measures through :func:`run_sequential_cell`:
        under :attr:`ExecutionPolicy.sequential` with that policy's
        interim looks, otherwise with the one-look fixed-N design.
        Either way an inconclusive cell extends its sample in place.
        """
        from repro.harness.experiment import cell_runner

        preflight_payload = self._preflight_payload(
            cell_id, variant, channel, predictor, overrides
        )

        seq_policy = self.policy.sequential
        kwargs = dict(overrides)
        if self.policy.max_trial_cycles is not None:
            kwargs.setdefault("max_trial_cycles", self.policy.max_trial_cycles)
        if self.policy.backend is not None:
            kwargs.setdefault("backend", self.policy.backend)

        def attempt_fn(seed_now: int, n_runs_now: int) -> SequentialOutcome:
            runner = cell_runner(
                variant, channel, predictor, n_runs_now, seed_now, **kwargs,
            )
            if seq_policy is None:
                design = SequentialDesign(looks=(n_runs_now,))
            else:
                design = seq_policy.design_for(n_runs_now)
            return run_sequential_cell(runner, design, self.policy.adaptive)

        cell = self.supervise(
            cell_id, attempt_fn, seed=seed, n_runs=n_runs,
            preflight=preflight_payload,
        )
        self._enforce_static_agreement(cell, predictor)
        return cell

    def _enforce_static_agreement(
        self, cell: "SupervisedCell", predictor: str
    ) -> None:
        """Under ``strict_preflight``, verify static == dynamic verdict.

        Raises:
            AnalysisSoundnessError: When the static classification
                predicts one verdict and the measurement produced the
                other.  Control cells (``predictor="none"``) are
                expected ineffective regardless of the static verdict,
                matching the report-time agreement semantics.
        """
        if not self.policy.strict_preflight:
            return
        payload = cell.preflight if isinstance(cell.preflight, dict) else None
        classification = (
            payload.get("classification") if payload is not None else None
        )
        if not isinstance(classification, dict) or cell.result is None:
            return
        static_effective = classification.get("effective")
        if static_effective is None:
            return
        predicted = bool(static_effective) and predictor not in ("none", "")
        dynamic = bool(cell.result.attack_succeeds)
        if predicted != dynamic:
            from repro.errors import AnalysisSoundnessError

            raise AnalysisSoundnessError(
                f"cell {cell.cell_id!r}: static analysis predicts "
                f"{'effective' if predicted else 'ineffective'} "
                f"({classification.get('symbol', '?')}, predictor "
                f"{predictor!r}) but the measurement is "
                f"{'effective' if dynamic else 'ineffective'} "
                f"(p={cell.result.pvalue:.3g})"
            )

    def _preflight_payload(
        self,
        cell_id: str,
        variant: AttackVariant,
        channel: ChannelType,
        predictor: str,
        overrides: Dict[str, object],
    ) -> Optional[Dict[str, object]]:
        """Statically validate a cell about to run for the first time.

        The analysis runs once per process for each distinct static
        configuration (:func:`_passing_preflight`); every call returns
        its own copy of the payload.

        Raises:
            AnalysisError: When the static analyzer finds a
                contradiction (via
                :meth:`~repro.analysis.preflight.PreflightReport.raise_if_failed`).
        """
        if not self.policy.preflight:
            return None
        if self.store is not None and self.store.has(cell_id):
            return None
        kwargs: Dict[str, object] = {}
        for key in ("confidence", "chain_length", "modify_mode", "layout"):
            if overrides.get(key) is not None:
                kwargs[key] = overrides[key]
        return copy.deepcopy(
            _passing_preflight(variant, channel, predictor, **kwargs)
        )

    def run_rsa_supervised(
        self,
        cell_id: str,
        exponent: int,
        seed: int = 7,
        memory_config: Optional[MemoryConfig] = None,
        **config_overrides,
    ) -> SupervisedCell:
        """Supervised version of the Figure 7 RSA exponent leak."""
        kwargs = dict(config_overrides)
        if self.policy.max_trial_cycles is not None:
            kwargs.setdefault("max_trial_cycles", self.policy.max_trial_cycles)

        def attempt_fn(seed_now: int, n_runs_now: Optional[int]):
            config = RsaAttackConfig(
                seed=seed_now, memory_config=memory_config, **kwargs
            )
            return RsaVpAttack(config).run(Mpi.from_int(exponent))

        return self.supervise(cell_id, attempt_fn, seed=seed)


def _slug(text: str) -> str:
    collapsed = re.sub(
        r"-+", "-",
        "".join(ch if ch.isalnum() else "-" for ch in text.lower()),
    )
    return collapsed.strip("-")
