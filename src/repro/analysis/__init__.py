"""Static analysis of attack programs (no simulation required).

Because :mod:`repro.isa` programs are straight-line with all loop trip
counts and secrets resolved at build time, every leakage-relevant
property is statically decidable.  This package exploits that with
four passes:

* :mod:`repro.analysis.taint` — forward dataflow over registers and
  memory, tracking values derived from secret-marked loads and
  flagging secret-to-address flows (persistent-channel encodes) and
  secret-to-timing-window flows;
* :mod:`repro.analysis.vpstate` — abstract interpretation of the
  Value Prediction System under a configurable index function,
  computing which indices a program sequence trains, evicts or
  collides on;
* :mod:`repro.analysis.classify` — maps a captured (trainer,
  modifier, trigger) program triple onto the Table I action
  vocabulary and checks it against the Table II reduction rules of
  :mod:`repro.core.model`;
* :mod:`repro.analysis.preflight` — the harness-facing lint: every
  sweep cell is validated before any simulation budget is spent,
  raising :class:`~repro.errors.AnalysisError` on contradictions;
* :mod:`repro.analysis.enumerate` — the exhaustive hunt: captures and
  abstractly interprets the realization
  (:class:`~repro.core.synthesis.ComboAttack`) of **all 576** Table I
  (train, modify, trigger) combinations and certifies Table II's
  twelve variants as the complete, minimal set of effective classes,
  emitting a machine-checked ``hunt_certificate.json``.

:mod:`repro.analysis.codelint` is separate: an AST-based determinism
lint over the reproduction's own Python sources.
"""

from repro.analysis.capture import (
    CapturedTrial,
    CaptureCore,
    CaptureMemory,
    capture_variant,
)
from repro.analysis.classify import (
    StaticClassification,
    classify_cell,
    derive_combo,
)
from repro.analysis.enumerate import (
    ComboVerdict,
    build_certificate,
    dynamic_targets,
    follow_reduction,
    hunt_certificate,
    hunt_records,
)
from repro.analysis.preflight import (
    PreflightReport,
    gadget_corpus,
    lint_paths,
    lint_program,
    preflight_cell,
)
from repro.analysis.taint import TaintReport, analyze_taint
from repro.analysis.vpstate import TriggerEvent, VpsAbstractMachine

__all__ = [
    "CaptureCore",
    "CaptureMemory",
    "CapturedTrial",
    "ComboVerdict",
    "PreflightReport",
    "StaticClassification",
    "TaintReport",
    "TriggerEvent",
    "VpsAbstractMachine",
    "analyze_taint",
    "build_certificate",
    "capture_variant",
    "classify_cell",
    "derive_combo",
    "dynamic_targets",
    "follow_reduction",
    "gadget_corpus",
    "hunt_certificate",
    "hunt_records",
    "lint_paths",
    "lint_program",
    "preflight_cell",
]
