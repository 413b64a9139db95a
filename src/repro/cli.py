"""Command-line interface: regenerate any paper artifact from a shell.

Examples::

    python -m repro table2
    python -m repro attack --variant "Train + Test" --channel persistent
    python -m repro table3 --runs 100
    python -m repro fig5
    python -m repro fig7
    python -m repro sweep --variant "Test + Hit" --windows 1,2,4,6,8,9,10
    python -m repro attack --variant "Spill Over" --defense "A[fixed]+D"
    python -m repro hunt --static --out out
    python -m repro hunt --out out --runs 60
    python -m repro report --dir out --hunt
    python -m repro speedup
    python -m repro analyze examples/programs/timed_trigger.asm
    python -m repro lint --code
    python -m repro report --dir out
    python -m repro all --out out --workers 4
    python -m repro all --out out --sequential
    python -m repro attack --variant "Train + Test" --sequential
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.channels import ChannelType
from repro.core.variants import variant_by_name
from repro.defenses import (
    AlwaysPredictDefense,
    Defense,
    DefenseStack,
    DelaySideEffectsDefense,
    InvisiSpecDefense,
    RandomWindowDefense,
)
from repro.errors import ReproError
from repro.harness import (
    PROFILES,
    ExecutionPolicy,
    FaultInjector,
    ResilientExecutor,
    RetryPolicy,
    fault_profile,
    figure5_panels,
    figure7_report,
    figure7_result,
    figure8_panels,
    render_defense_sweep,
    render_table1,
    render_table2,
    table3_report,
    table3_results,
    window_sweep,
)
from repro.core.taxonomy import render_figure2


def parse_defense(text: Optional[str]) -> Optional[Defense]:
    """Parse a defense spec like ``"R[3]+A[history]+D"``.

    Components: ``R[n]`` (random window), ``A[history]``/``A[fixed]``
    (always predict), ``D`` (delay side effects), ``invisispec``.
    """
    if not text:
        return None
    components: List[Defense] = []
    for token in text.split("+"):
        token = token.strip()
        lowered = token.lower()
        if lowered.startswith("r[") and lowered.endswith("]"):
            components.append(RandomWindowDefense(window_size=_integer(
                token[2:-1], f"defense component {token!r}"
            )))
        elif lowered.startswith("a[") and lowered.endswith("]"):
            components.append(AlwaysPredictDefense(mode=lowered[2:-1]))
        elif lowered == "d":
            components.append(DelaySideEffectsDefense())
        elif lowered == "invisispec":
            components.append(InvisiSpecDefense())
        else:
            raise ReproError(f"unknown defense component {token!r}")
    return DefenseStack(components)


def _integer(text: str, what: str) -> int:
    """``text`` as an int, or a :class:`ReproError` naming ``what``."""
    try:
        return int(text)
    except ValueError:
        raise ReproError(f"{what}: {text!r} is not an integer") from None


def _sequential_policy(args: argparse.Namespace):
    """The :class:`SequentialPolicy` requested by the CLI flags.

    Returns ``None`` for fixed-N runs (the default).
    """
    from repro.harness.runner import SequentialPolicy

    if not args.sequential:
        if args.interim_looks:
            raise ReproError("--interim-looks requires --sequential")
        return None
    looks = None
    if args.interim_looks:
        looks = tuple(
            _integer(part, "--interim-looks")
            for part in args.interim_looks.split(",")
        )
    return SequentialPolicy(looks=looks)


def _add_sequential_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sequential", action="store_true",
        help="group-sequential early stopping: examine each cell at "
             "interim looks against an alpha-spending boundary and "
             "stop as soon as the verdict is decisive",
    )
    parser.add_argument(
        "--interim-looks", default=None, metavar="N1,N2,...",
        help="with --sequential: explicit cumulative trial counts for "
             "the interim looks (default: 20/40/60/80/100%% of --runs)",
    )


def _add_backend_flag(parser: argparse.ArgumentParser) -> None:
    from repro.sim import BACKEND_NAMES

    parser.add_argument(
        "--backend", default=None, choices=list(BACKEND_NAMES),
        help="simulation backend for the trial loop: scalar (the "
             "reference interpreter, default) or batched (numpy "
             "lockstep lanes, byte-identical results); default follows "
             "$REPRO_BACKEND",
    )


def _cmd_table1(args: argparse.Namespace) -> None:
    print(render_table1())


def _cmd_table2(args: argparse.Namespace) -> None:
    print(render_table2())


def _cmd_fig2(args: argparse.Namespace) -> None:
    print(render_figure2())


def _cmd_attack(args: argparse.Namespace) -> None:
    variant = variant_by_name(args.variant)
    executor = ResilientExecutor(
        ExecutionPolicy(
            retry=RetryPolicy(max_retries=args.max_retries),
            sequential=_sequential_policy(args),
            backend=args.backend,
            strict_preflight=args.strict_preflight,
        ),
        injector=(
            FaultInjector(fault_profile(args.fault_profile), seed=args.seed)
            if args.fault_profile else None
        ),
    )
    cell = executor.run_cell_supervised(
        f"attack/{args.variant}", variant, ChannelType(args.channel),
        args.predictor, args.runs, args.seed,
        confidence=args.confidence,
        defense=parse_defense(args.defense),
        use_oracle=args.oracle,
        modify_mode=args.modify_mode,
    )
    escalations = (
        f", {cell.escalations} escalation(s)" if cell.escalations else ""
    )
    print(f"execution: {cell.classification.value} "
          f"({len(cell.attempts)} attempt(s){escalations}"
          f"{', ' + cell.note if cell.note else ''})")
    if cell.sequential is not None:
        seq = cell.sequential
        stopped = ", stopped early" if seq["stopped_early"] else ""
        print(f"sequential: effective n "
              f"{seq['effective_n']}/{seq['planned_n']} after "
              f"{len(seq['looks'])} look(s){stopped}, "
              f"{seq['trials_avoided']} trial(s) avoided")
    if cell.result is None:
        raise ReproError(
            f"cell failed permanently: {cell.note} (last error: "
            f"{cell.attempts[-1].error})"
        )
    result = cell.result
    print(result.describe())
    print(f"  mapped   mean: {result.comparison.mapped.mean:8.1f} cycles "
          f"(n={len(result.comparison.mapped)})")
    print(f"  unmapped mean: {result.comparison.unmapped.mean:8.1f} cycles "
          f"(n={len(result.comparison.unmapped)})")


def _cmd_table3(args: argparse.Namespace) -> None:
    results = table3_results(n_runs=args.runs, seed=args.seed)
    print(table3_report(results))


def _cmd_fig5(args: argparse.Namespace) -> None:
    from repro.harness.parallel import _figure_text

    print(_figure_text("fig5", figure5_panels(n_runs=args.runs, seed=args.seed)))


def _cmd_fig8(args: argparse.Namespace) -> None:
    from repro.harness.parallel import _figure_text

    print(_figure_text("fig8", figure8_panels(n_runs=args.runs, seed=args.seed)))


def _cmd_fig7(args: argparse.Namespace) -> None:
    print(figure7_report(figure7_result(seed=args.seed)))


def _cmd_sweep(args: argparse.Namespace) -> None:
    variant = variant_by_name(args.variant)
    windows = [
        _integer(part, "--windows") for part in args.windows.split(",")
    ]
    rows, secure_at = window_sweep(
        variant, windows, n_runs=args.runs,
        seeds=tuple(args.seed + i for i in range(args.median_seeds)),
    )
    print(render_defense_sweep(variant.name, rows, secure_at))


def _cmd_all(args: argparse.Namespace) -> None:
    from repro.harness.persistence import run_all

    artifacts = (
        [part.strip() for part in args.artifacts.split(",")]
        if args.artifacts else None
    )
    written = run_all(
        args.out, n_runs=args.runs, seed=args.seed, artifacts=artifacts,
        resume=args.resume, max_retries=args.max_retries,
        fault_profile_name=args.fault_profile,
        workers=args.workers,
        cell_timeout_s=args.cell_timeout,
        sequential=_sequential_policy(args),
        strict_preflight=args.strict_preflight,
        backend=args.backend,
    )
    for name, path in sorted(written.items()):
        print(f"{name}: {path}")


def _cmd_hunt(args: argparse.Namespace) -> None:
    from repro.analysis.report import render_hunt
    from repro.harness.hunt import run_hunt

    out = run_hunt(
        args.out,
        static_only=args.static,
        n_runs=args.runs,
        seed=args.seed,
        confidence=args.confidence,
        predictor=args.predictor,
        resume=args.resume,
    )
    certificate = out["certificate"]
    dynamic = out["dynamic"]
    if args.json:
        import json

        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        print(render_hunt(certificate, dynamic))
    if not certificate["certified"]:
        raise ReproError(
            "hunt certificate failed: Table II completeness/minimality "
            "claims do not hold under the model"
        )
    if dynamic is not None and not dynamic["all_agree"]:
        raise ReproError(
            "static/dynamic disagreement in the hunt confirmation"
        )


def _cmd_analyze(args: argparse.Namespace) -> None:
    import json

    from repro.analysis.report import (
        program_payload, render_program_analysis,
    )
    from repro.isa.assembler import assemble

    try:
        source = open(args.program).read()
    except OSError as error:
        raise ReproError(f"cannot read {args.program!r}: {error}") from None
    import os
    program = assemble(
        source, name=os.path.splitext(os.path.basename(args.program))[0]
    )
    payload = program_payload(
        program, confidence_threshold=args.confidence
    )
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_program_analysis(payload))
    if not payload["ok"]:
        raise ReproError(
            f"{len(payload['issues'])} lint issue(s) in {args.program}"
        )


def _cmd_lint(args: argparse.Namespace) -> None:
    import json
    import os

    from repro.analysis.codelint import lint_code
    from repro.analysis.preflight import (
        gadget_corpus, lint_paths, lint_program, preflight_cell,
    )
    from repro.analysis.report import (
        render_code_issues, render_lint_reports,
    )
    from repro.core.variants import ALL_VARIANTS

    reports = []
    if not args.paths or args.gadgets:
        for _, program in gadget_corpus():
            report = lint_program(program)
            report.subject = f"gadget:{program.name}"
            reports.append(report)
        for variant in ALL_VARIANTS:
            for channel in variant.supported_channels:
                reports.append(preflight_cell(variant, channel))
        if os.path.isdir("examples/programs"):
            reports.extend(lint_paths(["examples/programs"]))
    if args.paths:
        reports.extend(lint_paths(args.paths))

    code_issues = (
        (lint_code(args.code_path) if args.code_path else lint_code())
        if args.code else []
    )
    if args.json:
        print(json.dumps({
            "subjects": [report.to_payload() for report in reports],
            "code": [
                {"rule": i.rule, "path": i.path, "line": i.line,
                 "message": i.message}
                for i in code_issues
            ],
        }, indent=2, sort_keys=True))
    else:
        if reports:
            print(render_lint_reports(reports))
        if args.code:
            print(render_code_issues(code_issues))
    failed = sum(1 for report in reports if not report.ok)
    if failed or code_issues:
        raise ReproError(
            f"lint failed: {failed} subject(s), "
            f"{len(code_issues)} code issue(s)"
        )


def _cmd_report(args: argparse.Namespace) -> None:
    import json
    import os

    from repro.analysis.report import agreement_rows, render_agreement

    if args.hunt:
        from repro.analysis.report import render_hunt
        from repro.harness.hunt import CERTIFICATE_FILENAME, DYNAMIC_FILENAME

        certificate_path = os.path.join(args.dir, CERTIFICATE_FILENAME)
        if not os.path.isfile(certificate_path):
            raise ReproError(
                f"no {CERTIFICATE_FILENAME} in {args.dir!r}; run "
                "'repro hunt --out <dir>' first"
            )
        with open(certificate_path) as handle:
            certificate = json.load(handle)
        dynamic = None
        dynamic_path = os.path.join(args.dir, DYNAMIC_FILENAME)
        if os.path.isfile(dynamic_path):
            with open(dynamic_path) as handle:
                dynamic = json.load(handle)
        if args.json:
            print(json.dumps(
                {"certificate": certificate, "dynamic": dynamic},
                indent=2, sort_keys=True,
            ))
        else:
            print(render_hunt(certificate, dynamic))
        if not certificate.get("certified"):
            raise ReproError("hunt certificate is not certified")
        if dynamic is not None and not dynamic.get("all_agree"):
            raise ReproError(
                "static/dynamic disagreement in the hunt confirmation"
            )
        return

    artifacts = {}
    for name in ("fig5", "fig8", "table3"):
        path = os.path.join(args.dir, f"{name}.json")
        if os.path.isfile(path):
            with open(path) as handle:
                artifacts[name] = json.load(handle)
    if not artifacts:
        raise ReproError(
            f"no artifact JSON (fig5/fig8/table3) found in {args.dir!r}; "
            "run 'repro all --out <dir>' first"
        )
    rows = agreement_rows(artifacts)
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        print(render_agreement(rows))
    if any(row["agree"] is False for row in rows):
        raise ReproError("static/dynamic disagreement detected")


def _cmd_speedup(args: argparse.Namespace) -> None:
    from repro.memory.hierarchy import MemorySystem, MemoryConfig
    from repro.memory.memsys import DramConfig
    from repro.vp.lvp import LastValuePredictor
    from repro.vp.nopred import NoPredictor
    from repro.workloads.perf import (
        run_workload, speedup_percent, value_locality_workload,
    )

    def quiet_memory():
        return MemorySystem(MemoryConfig(
            dram=DramConfig(base_latency=200, jitter=0, tail_probability=0.0),
            l2_jitter=0,
        ))

    print("Value-prediction speedup vs. value locality:")
    for fraction in (0.0, 0.25, 0.5, 0.75, 1.0):
        workload = value_locality_workload(
            stable_fraction=fraction, dependent_work=40
        )
        baseline = run_workload(workload, NoPredictor(), quiet_memory())
        predicted = run_workload(
            workload, LastValuePredictor(confidence_threshold=4),
            quiet_memory(),
        )
        print(f"  stable={fraction:4.2f}  baseline={baseline:6d}  "
              f"vp={predicted:6d}  speedup={speedup_percent(baseline, predicted):+5.1f}%")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'New Predictor-Based Attacks in Processors' "
            "(DAC 2021): regenerate any table or figure."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="Table I action alphabet").set_defaults(
        func=_cmd_table1
    )
    sub.add_parser("table2", help="Table II model enumeration").set_defaults(
        func=_cmd_table2
    )
    sub.add_parser("fig2", help="Figure 2 channel taxonomy").set_defaults(
        func=_cmd_fig2
    )

    attack = sub.add_parser("attack", help="run one attack experiment")
    attack.add_argument("--variant", required=True,
                        help='e.g. "Train + Test"')
    attack.add_argument("--channel", default="timing-window",
                        choices=[c.value for c in ChannelType])
    attack.add_argument("--predictor", default="lvp",
                        choices=["lvp", "vtage", "none"])
    attack.add_argument("--confidence", type=int, default=4)
    attack.add_argument("--runs", type=int, default=100)
    attack.add_argument("--seed", type=int, default=0)
    attack.add_argument("--defense", default=None,
                        help='e.g. "R[3]+A[history]+D" or "invisispec"')
    attack.add_argument("--oracle", action="store_true",
                        help="predict only for the trigger PC")
    attack.add_argument("--modify-mode", default="retrain",
                        choices=["retrain", "invalidate"])
    attack.add_argument("--max-retries", type=int, default=2,
                        help="retries of the cell before giving up")
    # `attack` starts no worker pool, so only in-process profiles apply.
    attack.add_argument("--fault-profile", default=None,
                        choices=sorted(
                            name for name, profile in PROFILES.items()
                            if not profile.perturbs_process
                        ),
                        help="inject faults (robustness testing)")
    attack.add_argument(
        "--strict-preflight", action="store_true",
        help="treat any static/dynamic verdict disagreement as a hard "
             "AnalysisSoundnessError instead of a journaled note",
    )
    _add_backend_flag(attack)
    _add_sequential_flags(attack)
    attack.set_defaults(func=_cmd_attack)

    for name, fn, help_text in (
        ("table3", _cmd_table3, "full Table III evaluation"),
        ("fig5", _cmd_fig5, "Figure 5 Train + Test histograms"),
        ("fig8", _cmd_fig8, "Figure 8 Test + Hit histograms"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--runs", type=int, default=100)
        cmd.add_argument("--seed", type=int, default=0)
        cmd.set_defaults(func=fn)

    fig7 = sub.add_parser("fig7", help="Figure 7 RSA exponent leak")
    fig7.add_argument("--seed", type=int, default=7)
    fig7.set_defaults(func=_cmd_fig7)

    sweep = sub.add_parser("sweep", help="R-type window sweep")
    sweep.add_argument("--variant", required=True)
    sweep.add_argument("--windows", default="1,2,3,4,5,6,7,8,9,10")
    sweep.add_argument("--runs", type=int, default=100)
    sweep.add_argument("--seed", type=int, default=1)
    sweep.add_argument("--median-seeds", type=int, default=5,
                       help="seeds per window; the median p-value is used")
    sweep.set_defaults(func=_cmd_sweep)

    analyze = sub.add_parser(
        "analyze", help="statically analyze one attack program (.asm)"
    )
    analyze.add_argument("program", help="path to an .asm source file")
    analyze.add_argument("--confidence", type=int, default=4,
                         help="VPS confidence threshold for the analysis")
    analyze.add_argument("--json", action="store_true",
                         help="emit the full analysis as JSON")
    analyze.set_defaults(func=_cmd_analyze)

    lint = sub.add_parser(
        "lint",
        help="lint attack programs (and, with --code, the codebase)",
    )
    lint.add_argument(
        "paths", nargs="*",
        help=".asm files or directories; default lints the built-in "
             "gadgets, all sweep cells and examples/programs",
    )
    lint.add_argument(
        "--gadgets", action="store_true",
        help="also lint the built-in corpus when paths are given",
    )
    lint.add_argument("--code", action="store_true",
                      help="run the determinism lint over src/ and "
                           "benchmarks/")
    lint.add_argument(
        "--code-path", action="append", default=None, metavar="PATH",
        help="with --code, lint only these files/directories "
             "(repeatable), e.g. --code-path src/repro/perf",
    )
    lint.add_argument("--json", action="store_true")
    lint.set_defaults(func=_cmd_lint)

    report = sub.add_parser(
        "report", help="static/dynamic agreement for a 'repro all' run"
    )
    report.add_argument("--dir", required=True,
                        help="output directory of a previous 'repro all'")
    report.add_argument(
        "--hunt", action="store_true",
        help="render the hunt certificate (and, if present, the dynamic "
             "confirmation) from <dir> instead of the artifact agreement",
    )
    report.add_argument("--json", action="store_true")
    report.set_defaults(func=_cmd_report)

    hunt = sub.add_parser(
        "hunt",
        help="certify the full 576-combination attack space: static "
             "classification of every Table I combo plus dynamic "
             "confirmation of the survivors",
    )
    hunt.add_argument("--out", required=True,
                      help="output directory for hunt_certificate.json "
                           "(and hunt_dynamic.json)")
    hunt.add_argument("--static", action="store_true",
                      help="static certification only: deterministic, "
                           "byte-identical hunt_certificate.json")
    hunt.add_argument("--runs", type=int, default=60,
                      help="planned trials per hypothesis for dynamic "
                           "confirmation (group-sequential, so most "
                           "cells stop early)")
    hunt.add_argument("--seed", type=int, default=0)
    hunt.add_argument("--confidence", type=int, default=4,
                      help="VPS confidence threshold for both the "
                           "abstract interpreter and the measured cells")
    hunt.add_argument("--predictor", default="lvp",
                      choices=["lvp", "vtage"],
                      help="predictor for the dynamic confirmation")
    hunt.add_argument("--resume", action="store_true",
                      help="resume dynamic confirmation from "
                           "<out>/hunt_checkpoint")
    hunt.add_argument("--json", action="store_true")
    hunt.set_defaults(func=_cmd_hunt)

    sub.add_parser(
        "speedup", help="value-prediction performance benefit"
    ).set_defaults(func=_cmd_speedup)

    everything = sub.add_parser(
        "all", help="regenerate core artifacts into a directory"
    )
    everything.add_argument("--out", required=True,
                            help="existing output directory")
    everything.add_argument("--runs", type=int, default=100)
    everything.add_argument("--seed", type=int, default=0)
    everything.add_argument(
        "--artifacts", default=None,
        help="comma-separated subset of table1,table2,fig5,fig7,fig8,table3",
    )
    everything.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted run from <out>/checkpoint",
    )
    everything.add_argument("--max-retries", type=int, default=2,
                            help="per-cell retries before giving up")
    everything.add_argument(
        "--fault-profile", default=None, choices=sorted(PROFILES),
        help="inject faults (robustness testing)",
    )
    everything.add_argument(
        "--workers", type=int, default=None,
        help="supervised-pool width for the experiment cells; results "
             "are byte-identical for any value (default: $REPRO_WORKERS "
             "or 1)",
    )
    everything.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="per-cell wall-clock deadline with --workers > 1: a hung "
             "worker is killed at the deadline and the cell is "
             "redispatched deterministically (default: 600)",
    )
    everything.add_argument(
        "--strict-preflight", action="store_true",
        help="treat any static/dynamic verdict disagreement as a hard "
             "AnalysisSoundnessError instead of a journaled note",
    )
    _add_backend_flag(everything)
    _add_sequential_flags(everything)
    everything.set_defaults(func=_cmd_all)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        return 0
    except KeyboardInterrupt:
        # The sweep engine cancels outstanding cells and flushes the
        # journal before re-raising, so a --resume picks up cleanly.
        print("interrupted: journal flushed; re-run with --resume "
              "to continue", file=sys.stderr)
        return 130
    return 0
