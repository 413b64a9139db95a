"""Preflight validation: catch doomed cells before budget is spent.

Two consumers:

* the harness — :func:`preflight_cell` statically validates one
  (variant, channel) sweep cell before :mod:`repro.harness.runner`
  spends simulation budget on it, combining the Table II
  classification of :mod:`repro.analysis.classify` with the abstract
  VPS replay of :mod:`repro.analysis.vpstate`;
* the CLI — :func:`lint_program` / :func:`lint_paths` lint standalone
  attack programs (``repro analyze``, ``repro lint``) against the
  rules below.

Lint rules
----------

``unclosed-window``
    An odd number of RDTSC instructions: some timing window is never
    closed and its measurement is lost.
``empty-window``
    An RDTSC pair with nothing between it: the window measures only
    measurement overhead.
``untrained-trigger``
    A program that both trains and triggers, but whose trigger load
    can never see a prediction (its index never reaches confidence).
``secret-unencoded``
    A secret-marked load with no observable sink: its value feeds no
    address, no timed window, no later instruction, and no VPS entry
    that is ever consulted again — the secret is read but never leaks.
``indistinguishable``
    (cells only) The abstract VPS produces the same trigger outcome —
    and, for the persistent channel, the same predicted value — under
    both secret hypotheses: the receiver cannot tell them apart.
``no-encode``
    (cells only) A persistent-channel cell whose trigger value never
    reaches a memory address: nothing persists to probe.
``window-without-load``
    (cells only) A timing-window cell whose trigger windows contain
    no load: the window cannot react to the prediction.
``syntax-error``
    (files only) The ``.asm`` source does not assemble.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.classify import StaticClassification, classify_cell
from repro.analysis.taint import TaintReport, analyze_taint, dst_ever_read
from repro.analysis.vpstate import TriggerEvent, VpsAbstractMachine
from repro.core.channels import ChannelType
from repro.core.model import TriggerOutcome
from repro.errors import AnalysisError, IsaError
from repro.isa.assembler import assemble
from repro.isa.program import Program
from repro.workloads import gadgets
from repro.workloads.gadgets import Layout

if TYPE_CHECKING:
    from repro.core.variants import AttackVariant


@dataclass(frozen=True)
class LintIssue:
    """One finding of the preflight/lint pass."""

    rule: str
    message: str
    subject: str
    pc: Optional[int] = None

    def describe(self) -> str:
        """Human-readable one-liner."""
        where = f" (pc {self.pc:#x})" if self.pc is not None else ""
        return f"[{self.rule}] {self.subject}{where}: {self.message}"


@dataclass
class PreflightReport:
    """Outcome of linting one program, file or sweep cell."""

    subject: str
    issues: List[LintIssue] = field(default_factory=list)
    classification: Optional[StaticClassification] = None

    @property
    def ok(self) -> bool:
        """True when no issue was found."""
        return not self.issues

    def raise_if_failed(self) -> None:
        """Raise :class:`AnalysisError` when any issue was found."""
        if self.issues:
            details = "; ".join(issue.describe() for issue in self.issues)
            raise AnalysisError(
                f"preflight failed for {self.subject}: {details}"
            )

    def to_payload(self) -> Dict[str, object]:
        """JSON-serialisable form."""
        payload: Dict[str, object] = {
            "subject": self.subject,
            "ok": self.ok,
            "issues": [
                {
                    "rule": issue.rule,
                    "message": issue.message,
                    "subject": issue.subject,
                    "pc": issue.pc,
                }
                for issue in self.issues
            ],
        }
        if self.classification is not None:
            payload["classification"] = self.classification.to_payload()
        return payload


# ----------------------------------------------------------------------
# Single-program lint
# ----------------------------------------------------------------------

def lint_program(
    program: Program,
    *,
    confidence_threshold: int = 4,
    cell_events: Optional[Sequence] = None,
) -> PreflightReport:
    """Lint one program against the standalone rules.

    Args:
        program: The program to lint.
        confidence_threshold: VPS threshold for the untrained-trigger
            and secret-sink rules.
        cell_events: When linting a program as part of a cell, the
            abstract-VPS events of the *whole* cell, so cross-program
            VPS interactions count as sinks.  ``None`` replays the
            program alone.
    """
    report = PreflightReport(subject=program.name)
    taint = analyze_taint(program)

    if taint.unpaired_rdtsc:
        report.issues.append(LintIssue(
            "unclosed-window",
            "odd number of RDTSC instructions: a timing window is "
            "opened but never closed",
            program.name,
        ))
    for window in taint.windows:
        if window.instructions == 0:
            report.issues.append(LintIssue(
                "empty-window",
                "RDTSC pair with no instructions between: the window "
                "measures nothing",
                program.name,
                pc=window.start_pc,
            ))

    machine = VpsAbstractMachine(confidence_threshold=confidence_threshold)
    own_events = machine.execute(program, {})
    if cell_events is None:
        cell_events = own_events

    if program.pcs_tagged("train-load") and program.pcs_tagged("trigger-load"):
        trigger_events = [e for e in own_events if e.tag == "trigger-load"]
        if trigger_events and all(
            e.outcome is TriggerOutcome.NO_PREDICTION
            for e in trigger_events
        ):
            report.issues.append(LintIssue(
                "untrained-trigger",
                "the trigger load's index never reaches confidence: no "
                "prediction can ever fire",
                program.name,
                pc=trigger_events[0].pc,
            ))

    report.issues.extend(
        _secret_sink_issues(program, taint, own_events, cell_events)
    )
    return report


def _secret_sink_issues(
    program: Program,
    taint: TaintReport,
    own_events: Sequence[TriggerEvent],
    cell_events: Sequence[TriggerEvent],
) -> List[LintIssue]:
    """The ``secret-unencoded`` rule: every secret load needs a sink."""
    if not taint.secret_loads:
        return []
    if taint.address_flows or taint.tainted_windows:
        return []
    index_counts = Counter(
        e.index for e in cell_events if e.index is not None
    )
    issues = []
    flagged = set()
    for load in taint.secret_loads:
        if load.pc in flagged:
            continue
        if dst_ever_read(program, load.trace_index):
            continue
        event = next((e for e in own_events if e.pc == load.pc), None)
        if (event is not None and event.index is not None
                and index_counts[event.index] >= 2):
            # The entry this load trains is consulted again: the VPS
            # state change is the sink.
            continue
        flagged.add(load.pc)
        issues.append(LintIssue(
            "secret-unencoded",
            "secret load reaches no sink: its value feeds no address, "
            "no timed window, no later instruction and no re-consulted "
            "predictor entry",
            program.name,
            pc=load.pc,
        ))
    return issues


# ----------------------------------------------------------------------
# File corpus lint
# ----------------------------------------------------------------------

def lint_paths(
    paths: Iterable[Union[str, Path]],
    *,
    confidence_threshold: int = 4,
) -> List[PreflightReport]:
    """Assemble and lint ``.asm`` files (directories are walked).

    Files that do not assemble produce a single ``syntax-error``
    issue instead of raising.
    """
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.asm")))
        else:
            files.append(path)
    reports = []
    for path in files:
        try:
            program = assemble(path.read_text(), name=path.stem)
        except IsaError as exc:
            reports.append(PreflightReport(
                subject=str(path),
                issues=[LintIssue("syntax-error", str(exc), str(path))],
            ))
            continue
        report = lint_program(
            program, confidence_threshold=confidence_threshold
        )
        report.subject = str(path)
        reports.append(report)
    return reports


def gadget_corpus(layout: Optional[Layout] = None) -> List[Tuple[str, Program]]:
    """Representative programs from every gadget builder.

    ``repro lint`` runs these through :func:`lint_program` so a
    regression in :mod:`repro.workloads.gadgets` (a dropped RDTSC, a
    secret load losing its consumer) fails the lint gate.
    """
    layout = layout or Layout()
    pid_s, pid_r = layout.sender_pid, layout.receiver_pid
    return [
        ("train", gadgets.train_program(
            "train", pid_s, layout.sender_base_pc, layout.collide_pc,
            layout.sender_known_addr, 4,
        )),
        ("train-secret", gadgets.train_program(
            "train-secret", pid_s, layout.sender_base_pc, layout.collide_pc,
            layout.secret_addr, 4, secret=True,
        )),
        ("timed-trigger", gadgets.timed_trigger_program(
            "timed-trigger", pid_r, layout.receiver_base_pc,
            layout.collide_pc, layout.receiver_known_addr, 32,
        )),
        ("plain-trigger", gadgets.plain_trigger_program(
            "plain-trigger", pid_s, layout.sender_base_pc,
            layout.collide_pc, layout.secret_addr, 32, secret=True,
        )),
        ("encode-trigger", gadgets.encode_trigger_program(
            "encode-trigger", pid_r, layout.receiver_base_pc,
            layout.collide_pc, layout.receiver_known_addr, layout,
            flush_lines=[0, 1],
        )),
        ("probe", gadgets.probe_program(
            "probe", pid_r, layout.probe_base_pc, layout, [0, 1],
        )),
        ("idle", gadgets.idle_program(
            "idle", pid_s, layout.sender_base_pc,
        )),
        ("mul-burst-trigger", gadgets.mul_burst_trigger_program(
            "mul-burst-trigger", pid_s, layout.sender_base_pc,
            layout.collide_pc, layout.secret_addr, secret=True,
        )),
        ("mul-probe", gadgets.mul_probe_program(
            "mul-probe", pid_r, layout.probe_base_pc,
        )),
    ]


# ----------------------------------------------------------------------
# Cell preflight
# ----------------------------------------------------------------------

def preflight_cell(
    variant: "AttackVariant",
    channel: ChannelType,
    *,
    predictor: str = "lvp",
    confidence: int = 4,
    chain_length: Optional[int] = None,
    modify_mode: str = "retrain",
    layout: Optional[Layout] = None,
) -> PreflightReport:
    """Statically validate one sweep cell before running it.

    Classifies the cell (:func:`classify_cell` — raising
    :class:`AnalysisError` if the captures don't fit the three-step
    schema), lints every captured program, and replays both hypothesis
    captures through the abstract VPS to check the trigger actually
    distinguishes them.  VPS-behaviour checks are skipped for control
    cells (``predictor="none"``), where no prediction is the point.

    Call :meth:`PreflightReport.raise_if_failed` to enforce.
    """
    layout = layout or Layout()
    static = classify_cell(
        variant, channel, confidence=confidence,
        chain_length=chain_length, modify_mode=modify_mode, layout=layout,
    )
    subject = f"{variant.name} / {channel.value} / {predictor}"
    report = PreflightReport(subject=subject, classification=static)

    machines = {}
    for label, trial in (("mapped", static.mapped),
                         ("unmapped", static.unmapped)):
        machine = VpsAbstractMachine(confidence_threshold=confidence)
        machine.run_trial(trial)
        machines[label] = machine

    # Per-program lint, each distinct program once (cell-wide events
    # so cross-program VPS training counts as a sink).
    cell_events = machines["mapped"].events + machines["unmapped"].events
    seen = set()
    for trial in (static.mapped, static.unmapped):
        for captured in trial.programs:
            if captured.program.name in seen:
                continue
            seen.add(captured.program.name)
            program_report = lint_program(
                captured.program, confidence_threshold=confidence,
                cell_events=cell_events,
            )
            report.issues.extend(program_report.issues)

    trigger_step = next(s for s in static.steps if s.role == "trigger")
    trigger_name = trigger_step.program
    if predictor != "none":
        report.issues.extend(_distinguishability_issues(
            static, machines, trigger_name, channel, subject,
        ))
    report.issues.extend(
        _channel_issues(static, trigger_name, channel, subject)
    )
    return report


def _trigger_events(
    machine: VpsAbstractMachine, trigger_name: Optional[str]
) -> List[TriggerEvent]:
    return [
        e for e in machine.events
        if e.program == trigger_name and e.tag == "trigger-load"
    ]


def _distinguishability_issues(
    static: StaticClassification,
    machines: Dict[str, VpsAbstractMachine],
    trigger_name: Optional[str],
    channel: ChannelType,
    subject: str,
) -> List[LintIssue]:
    """Do the two hypotheses produce different trigger behaviour?"""
    events_m = _trigger_events(machines["mapped"], trigger_name)
    events_u = _trigger_events(machines["unmapped"], trigger_name)
    if not events_m or not events_u:
        # A presence-secret trigger runs under only one hypothesis;
        # its absence is the signal, nothing more to check.
        return []
    first_m, first_u = events_m[0], events_u[0]
    if (first_m.outcome is TriggerOutcome.UNKNOWN
            or first_u.outcome is TriggerOutcome.UNKNOWN):
        return []
    if first_m.outcome is not first_u.outcome:
        return []
    if (channel is ChannelType.PERSISTENT
            and first_m.entry_value is not None
            and first_m.entry_value != first_u.entry_value):
        # Same outcome, but the *predicted value* differs — that value
        # is what the persistent encode writes into the probe array.
        return []
    if first_m.outcome is TriggerOutcome.NO_PREDICTION:
        message = (
            "the trigger load's index never reaches confidence under "
            "either hypothesis: the cell can never observe a prediction"
        )
        rule = "untrained-trigger"
    else:
        message = (
            f"the abstract VPS yields outcome "
            f"{first_m.outcome.value!r} under both secret hypotheses: "
            "the receiver cannot distinguish them"
        )
        rule = "indistinguishable"
    return [LintIssue(rule, message, subject, pc=first_m.pc)]


def _channel_issues(
    static: StaticClassification,
    trigger_name: Optional[str],
    channel: ChannelType,
    subject: str,
) -> List[LintIssue]:
    """Structural channel contracts on the trigger program."""
    trial = static.mapped if static.mapped.program_named(trigger_name) \
        else static.unmapped
    program = trial.program_named(trigger_name)
    if program is None:
        return []
    issues = []
    if channel is ChannelType.PERSISTENT:
        trigger_pcs = frozenset(program.pcs_tagged("trigger-load"))
        flows = analyze_taint(
            program, extra_source_pcs=trigger_pcs,
            use_secret_annotations=False,
        ).address_flows
        if not flows:
            issues.append(LintIssue(
                "no-encode",
                "persistent-channel cell whose trigger value never "
                "reaches a memory address: nothing persists to probe",
                subject,
            ))
    elif channel is ChannelType.TIMING_WINDOW:
        taint = analyze_taint(program)
        if taint.windows and not any(w.has_load for w in taint.windows):
            issues.append(LintIssue(
                "window-without-load",
                "timing-window cell whose RDTSC windows contain no "
                "load: the window cannot react to the prediction",
                subject,
            ))
    return issues
