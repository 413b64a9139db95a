"""Exception hierarchy for the repro package.

All exceptions raised by this package derive from :class:`ReproError`
so callers can catch package-level failures with a single handler.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class IsaError(ReproError):
    """Raised for malformed instructions or programs."""


class AssemblyError(IsaError):
    """Raised when textual assembly cannot be parsed."""


class MemorySystemError(ReproError):
    """Raised for invalid memory-system configuration or access."""


class PredictorError(ReproError):
    """Raised for invalid value-predictor configuration or use."""


class PipelineError(ReproError):
    """Raised when the pipeline model reaches an inconsistent state."""


class SimulationError(ReproError):
    """Raised when a simulation cannot make forward progress."""


class AttackError(ReproError):
    """Raised for invalid attack specifications."""


class SimBackendError(ReproError):
    """Raised for unknown or misconfigured simulation backends."""


class BackendUnavailableError(SimBackendError):
    """Raised when a backend's optional dependency is not installed.

    The batched backend needs numpy (the ``repro[batch]`` extra); the
    scalar backend is always available, so selecting an unavailable
    backend is a configuration error with an actionable message, never
    a silent fallback.
    """


class AnalysisError(ReproError):
    """Raised when static analysis finds a contradiction in a program.

    The preflight analyzer (:mod:`repro.analysis`) raises this before
    an experiment cell spends any simulation budget — e.g. for an
    unreachable timing window, an untrained trigger index, or a
    persistent-channel cell with no secret-to-address flow.
    """


class AnalysisSoundnessError(AnalysisError):
    """Raised when static and dynamic verdicts disagree under strict mode.

    With ``--strict-preflight`` the harness treats a cell whose static
    classification predicts one verdict while the measurement produced
    the other as a soundness bug in either the analyzer or the
    simulator — a hard error instead of a report-time warning.
    """


class ModelError(ReproError):
    """Raised for invalid attack-model queries."""


class StatsError(ReproError):
    """Raised for invalid statistical computations (e.g. empty samples)."""


class CryptoError(ReproError):
    """Raised for invalid bignum or modular-exponentiation inputs."""


class HarnessError(ReproError):
    """Raised for invalid experiment configurations."""


class FaultInjectionError(ReproError):
    """Raised for invalid fault profiles or by injected faults."""


class InjectedCrashError(FaultInjectionError):
    """A deterministic, injector-simulated executor crash.

    Raised by :class:`repro.harness.faults.FaultInjector` to exercise
    the retry and checkpoint-resume paths; never raised by real code.
    """
