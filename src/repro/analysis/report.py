"""Human-readable and JSON renderings of static-analysis results.

Three consumers:

* ``repro analyze <program.asm>`` — :func:`program_payload` /
  :func:`render_program_analysis` describe one program's taint flows,
  timing windows and lint findings;
* ``repro lint`` — :func:`render_lint_reports` /
  :func:`render_code_issues` summarise a corpus lint run;
* ``repro report <dir>`` — :func:`agreement_rows` /
  :func:`render_agreement` read the artifact JSON written by
  :func:`repro.harness.persistence.run_all` and show, per sweep cell,
  whether the *static* Table II classification agreed with the
  *dynamic* p-value verdict.

``repro report --hunt`` additionally reads the exhaustive hunt's
artifacts (``hunt_certificate.json`` / ``hunt_dynamic.json``, written
by :mod:`repro.harness.hunt`) and renders the certificate's claims
next to the per-survivor static/dynamic agreement
(:func:`hunt_agreement_rows` / :func:`render_hunt`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.codelint import CodeLintIssue
from repro.analysis.preflight import PreflightReport, lint_program
from repro.analysis.taint import analyze_taint
from repro.analysis.vpstate import VpsAbstractMachine
from repro.isa.program import Program


# ----------------------------------------------------------------------
# Single-program analysis (repro analyze)
# ----------------------------------------------------------------------

def program_payload(
    program: Program,
    *,
    confidence_threshold: int = 4,
) -> Dict[str, object]:
    """Full JSON-serialisable analysis of one program."""
    taint = analyze_taint(program)
    machine = VpsAbstractMachine(confidence_threshold=confidence_threshold)
    events = machine.execute(program, {})
    lint = lint_program(program, confidence_threshold=confidence_threshold)
    return {
        "program": program.name,
        "instructions": len(program.instructions),
        "dynamic_length": len(program.dynamic_trace()),
        "loads": [
            {
                "pc": load.pc,
                "addr": load.addr,
                "tag": load.tag,
                "secret": load.secret,
                "tainted": load.tainted,
            }
            for load in taint.loads
        ],
        "address_flows": [
            {"pc": flow.pc, "op": flow.op}
            for flow in taint.address_flows
        ],
        "windows": [
            {
                "start_pc": window.start_pc,
                "stop_pc": window.stop_pc,
                "instructions": window.instructions,
                "has_load": window.has_load,
                "tainted": window.tainted,
            }
            for window in taint.windows
        ],
        "vps_events": [
            {
                "pc": event.pc,
                "index": event.index,
                "outcome": event.outcome.value,
                "tag": event.tag,
            }
            for event in events
        ],
        "issues": lint.to_payload()["issues"],
        "ok": lint.ok,
    }


def render_program_analysis(payload: Dict[str, object]) -> str:
    """Human-readable rendering of :func:`program_payload`."""
    lines = [
        f"program {payload['program']}: "
        f"{payload['instructions']} instructions "
        f"({payload['dynamic_length']} dynamic)",
    ]
    loads = payload["loads"]
    lines.append(f"  loads: {len(loads)}")
    for load in loads:
        marks = []
        if load["secret"]:
            marks.append("secret")
        if load["tainted"]:
            marks.append("tainted")
        if load["tag"]:
            marks.append(load["tag"])
        addr = "?" if load["addr"] is None else f"{load['addr']:#x}"
        suffix = f"  [{', '.join(marks)}]" if marks else ""
        lines.append(f"    pc {load['pc']:#x} <- mem[{addr}]{suffix}")
    flows = payload["address_flows"]
    if flows:
        lines.append(f"  secret->address flows: {len(flows)}")
        for flow in flows:
            lines.append(f"    {flow['op']} at pc {flow['pc']:#x}")
    windows = payload["windows"]
    if windows:
        lines.append(f"  timing windows: {len(windows)}")
        for window in windows:
            traits = []
            if window["has_load"]:
                traits.append("load")
            if window["tainted"]:
                traits.append("tainted")
            lines.append(
                f"    {window['start_pc']:#x}..{window['stop_pc']:#x}: "
                f"{window['instructions']} instructions"
                + (f" ({', '.join(traits)})" if traits else "")
            )
    if payload["ok"]:
        lines.append("  lint: clean")
    else:
        lines.append("  lint:")
        for issue in payload["issues"]:
            lines.append(f"    [{issue['rule']}] {issue['message']}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Corpus lint rendering (repro lint)
# ----------------------------------------------------------------------

def render_lint_reports(reports: Sequence[PreflightReport]) -> str:
    """One line per subject, grep-style lines per issue."""
    lines = []
    failed = 0
    for report in reports:
        if report.ok:
            lines.append(f"ok       {report.subject}")
        else:
            failed += 1
            lines.append(f"FAILED   {report.subject}")
            for issue in report.issues:
                lines.append(f"         {issue.describe()}")
    lines.append(
        f"{len(reports) - failed}/{len(reports)} subjects clean"
    )
    return "\n".join(lines)


def render_code_issues(issues: Sequence[CodeLintIssue]) -> str:
    """Grep-style rendering of determinism-lint findings."""
    if not issues:
        return "code lint: clean"
    lines = [issue.describe() for issue in issues]
    lines.append(f"code lint: {len(issues)} issue(s)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Static/dynamic agreement (repro report)
# ----------------------------------------------------------------------

def static_agreement(
    static_effective: Optional[bool], predictor: str, dynamic: bool
) -> Optional[bool]:
    """Does a cell's measured verdict agree with its static one?

    Static analysis predicts the *attack* works, so a cell is expected
    to leak when its static verdict is effective and it runs a
    predictor; a control cell (predictor ``"none"``) is expected to
    show nothing either way.  ``None`` without a static verdict.
    ``repro report`` and ``--strict-preflight`` both apply this rule.
    """
    if static_effective is None:
        return None
    return (static_effective and predictor not in ("none", "")) == dynamic


def _record_rows(cell_name: str, record: object) -> List[Dict[str, object]]:
    if not isinstance(record, dict) or "pvalue" not in record:
        return []
    static = record.get("static")
    static_effective: Optional[bool] = None
    symbol = ""
    if isinstance(static, dict):
        classification = static.get("classification") or {}
        static_effective = classification.get("effective")
        symbol = classification.get("symbol", "")
    predictor = record.get("predictor", "")
    dynamic = bool(record.get("effective"))
    agree = static_agreement(static_effective, predictor, dynamic)
    sequential = record.get("sequential")
    effective_n = record.get("mapped_samples")
    planned_n: Optional[int] = None
    stopped_early: Optional[bool] = None
    if isinstance(sequential, dict):
        # Group-sequential cells report how much of the trial budget
        # the verdict actually consumed.
        effective_n = sequential.get("effective_n", effective_n)
        planned_n = sequential.get("planned_n")
        stopped_early = sequential.get("stopped_early")
    return [{
        "cell": cell_name,
        "variant": record.get("variant", ""),
        "channel": record.get("channel", ""),
        "predictor": predictor,
        "symbol": symbol,
        "static_effective": static_effective,
        "dynamic_effective": dynamic,
        "pvalue": record.get("pvalue"),
        "effective_n": effective_n,
        "planned_n": planned_n,
        "stopped_early": stopped_early,
        "agree": agree,
    }]


def agreement_rows(artifacts: Dict[str, Dict]) -> List[Dict[str, object]]:
    """Flatten artifact JSON payloads into agreement rows.

    Accepts the parsed contents of ``fig5.json`` / ``fig8.json``
    (``"panels"``) and ``table3.json`` (``"cells"``), keyed by
    artifact name.
    """
    rows: List[Dict[str, object]] = []
    for artifact, payload in sorted(artifacts.items()):
        if not isinstance(payload, dict):
            continue
        for title, record in payload.get("panels", {}).items():
            rows.extend(_record_rows(f"{artifact}/{title}", record))
        for category, cells in payload.get("cells", {}).items():
            if not isinstance(cells, dict):
                continue
            for key, record in cells.items():
                rows.extend(_record_rows(
                    f"{artifact}/{category}/{key}", record
                ))
    return rows


def render_agreement(rows: Sequence[Dict[str, object]]) -> str:
    """Tabular static-vs-dynamic agreement report."""
    if not rows:
        return "no supervised cells with results found"
    lines = [
        f"{'cell':58s} {'static':8s} {'dynamic':8s} {'p-value':>9s} "
        f"{'eff-n':>9s} agree",
    ]
    agreed = disagreed = unknown = 0
    for row in rows:
        static = row["static_effective"]
        static_text = "?" if static is None else (
            "attack" if static else "no-attk"
        )
        dynamic_text = "attack" if row["dynamic_effective"] else "no-attk"
        pvalue = row["pvalue"]
        pvalue_text = "" if pvalue is None else f"{pvalue:9.4f}"
        # Effective-N: "24/100" when a sequential cell stopped early,
        # a plain count otherwise ("" for legacy records without one).
        effective_n = row.get("effective_n")
        planned_n = row.get("planned_n")
        if effective_n is None:
            n_text = ""
        elif planned_n is not None:
            n_text = f"{effective_n}/{planned_n}"
        else:
            n_text = str(effective_n)
        agree = row["agree"]
        if agree is None:
            agree_text = "n/a"
            unknown += 1
        elif agree:
            agree_text = "yes"
            agreed += 1
        else:
            agree_text = "NO"
            disagreed += 1
        lines.append(
            f"{row['cell']:58.58s} {static_text:8s} {dynamic_text:8s} "
            f"{pvalue_text:>9s} {n_text:>9s} {agree_text}"
        )
    lines.append(
        f"{agreed} agree, {disagreed} disagree, {unknown} without "
        "static record"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Hunt certificate + dynamic confirmation (repro report --hunt)
# ----------------------------------------------------------------------

def hunt_agreement_rows(
    certificate: Dict[str, object],
    dynamic: Optional[Dict[str, object]] = None,
) -> List[Dict[str, object]]:
    """Merge the certificate's survivors with the dynamic measurements.

    One row per equivalence class (and per dynamic target outside the
    classes, should a completeness counterexample ever be measured);
    ``dynamic_effective``/``pvalue`` are ``None`` when the class has
    not been measured yet (static-only runs).
    """
    dynamic_by_symbol: Dict[str, Dict[str, object]] = {}
    if isinstance(dynamic, dict):
        for row in dynamic.get("rows", []):
            dynamic_by_symbol[str(row.get("symbol"))] = row

    rows: List[Dict[str, object]] = []
    for entry in certificate.get("classes", []):
        symbol = str(entry.get("symbol"))
        measured = dynamic_by_symbol.pop(symbol, None)
        rows.append({
            "symbol": symbol,
            "category": entry.get("category"),
            "members": entry.get("members"),
            "static_effective": True,
            "dynamic_effective": (
                measured.get("dynamic_effective")
                if measured is not None else None
            ),
            "pvalue": measured.get("pvalue") if measured is not None else None,
            "effective_n": (
                measured.get("effective_n") if measured is not None else None
            ),
            "agree": measured.get("agree") if measured is not None else None,
        })
    # Dynamic targets that are not class representatives (candidate
    # new variants surfaced by a failed completeness claim).
    for symbol, measured in sorted(dynamic_by_symbol.items()):
        rows.append({
            "symbol": symbol,
            "category": measured.get("category"),
            "members": None,
            "static_effective": measured.get("static_effective"),
            "dynamic_effective": measured.get("dynamic_effective"),
            "pvalue": measured.get("pvalue"),
            "effective_n": measured.get("effective_n"),
            "agree": measured.get("agree"),
        })
    return rows


def render_hunt(
    certificate: Dict[str, object],
    dynamic: Optional[Dict[str, object]] = None,
) -> str:
    """The hunt summary: claims, verdict counts, agreement table."""
    verdicts = certificate.get("verdicts", {})
    space = certificate.get("space", {})
    lines = [
        f"Attack-space hunt over {space.get('combos', '?')} combos "
        f"({space.get('train_actions', '?')} train x "
        f"{space.get('modify_actions', '?')} modify x "
        f"{space.get('trigger_actions', '?')} trigger), "
        f"confidence {certificate.get('confidence', '?')}:",
        f"  verdicts: {verdicts.get('effective', 0)} effective, "
        f"{verdicts.get('reducible', 0)} reducible, "
        f"{verdicts.get('invalid', 0)} invalid",
        "",
        "claims:",
    ]
    claims = certificate.get("claims", {})
    for name in sorted(claims):
        claim = claims[name]
        status = "ok" if claim.get("ok") else "FAILED"
        lines.append(f"  {name:22s} {status:6s} {claim.get('statement', '')}")
        if not claim.get("ok"):
            for counterexample in claim.get("counterexamples", [])[:10]:
                lines.append(f"    !! {counterexample}")
    lines.append("")

    rows = hunt_agreement_rows(certificate, dynamic)
    lines.append(
        f"{'class':28s} {'category':14s} {'members':>7s} {'static':8s} "
        f"{'dynamic':8s} {'p-value':>9s} {'eff-n':>6s} agree"
    )
    disagreed = 0
    for row in rows:
        static_text = "attack" if row["static_effective"] else "no-attk"
        measured = row["dynamic_effective"]
        dynamic_text = (
            "" if measured is None else ("attack" if measured else "no-attk")
        )
        pvalue = row["pvalue"]
        pvalue_text = "" if pvalue is None else f"{pvalue:9.2e}"
        members = row["members"]
        members_text = "" if members is None else str(members)
        agree = row["agree"]
        agree_text = "n/a" if agree is None else ("yes" if agree else "NO")
        disagreed += 1 if agree is False else 0
        lines.append(
            f"{row['symbol']:28.28s} {str(row['category'] or ''):14s} "
            f"{members_text:>7s} {static_text:8s} {dynamic_text:8s} "
            f"{pvalue_text:>9s} {str(row['effective_n'] or ''):>6s} "
            f"{agree_text}"
        )
    extended = certificate.get("extended_persistent_candidates", [])
    lines.append("")
    lines.append(
        f"{len(extended)} combo(s) distinguish hypotheses by entry value "
        "only (persistent-channel candidates, no timing leak)"
    )
    certified = certificate.get("certified")
    lines.append(
        "CERTIFIED: Table II is complete and minimal under the model"
        if certified else
        "NOT CERTIFIED: see failed claims above"
    )
    if disagreed:
        lines.append(f"{disagreed} class(es) DISAGREE with measurement")
    return "\n".join(lines)
