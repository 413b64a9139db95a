"""The benchmark's four workloads, and the child process that runs one.

    python3 -m bench.workloads --workload NAME --seed S --seconds T \\
        --trace 0|1 --out DIR --result FILE [--tiny]
    python3 -m bench.workloads --workload NAME --seed S --out DIR \\
        --setup-only [--tiny]

``bench/run.py`` starts this module in a fresh process per workload,
with a pinned environment, and reads the result file it writes.  Every
workload is a closed loop with one client: the next operation starts
when the previous one has finished.  The program only ever sees the
generated CLI arguments or cell list (:meth:`Workload.inputs`).  Why
each workload exists is recorded in bench/README.md and BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from bench.trace import LAYER_NAMES, ROOT, Tracer, summarize

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE_PATH = os.path.join(REPO, "bench", "reference.json")

#: Set-up samples per untraced run (fresh processes, spawn to ready).
SETUP_SAMPLES = 5

#: Cells each run re-runs on the scalar backend after the timed region.
SPOT_CHECKS = 2

#: The defense specs of the Section VI-B matrix (``repro.cli.parse_defense``).
DEFENSE_SPECS = (
    "R[3]", "R[8]", "A[history]", "A[fixed]", "D", "invisispec",
    "A[fixed]+D", "A[history]+D", "R[3]+D", "invisispec+D",
)

#: A problem found by a check: (operation, message).
Problem = Tuple[str, str]


def digest(data: object) -> str:
    """sha256 of raw bytes, or of canonical JSON for anything else."""
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()


def file_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return digest(handle.read())


def tree_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(parent, name))
        for parent, _, names in os.walk(path) for name in names
    )


def is_r_cell(spec: str) -> bool:
    """R-type (random window) defenses; their results are not pinned."""
    return any(part.strip().lower().startswith("r[") for part in spec.split("+"))


@dataclass
class Outcome:
    """One timed iteration: its operations and what they produced.

    ``complete`` is false when the iteration as a whole failed (a
    nonzero exit, an exception out of ``run_all``), so there are no
    outputs to check.  ``key`` selects the reference digests.
    """

    index: int
    key: str
    ops: List[str] = field(default_factory=list)
    wall: float = 0.0
    complete: bool = True
    problems: List[Problem] = field(default_factory=list)
    out_dir: Optional[str] = None
    payloads: Dict[str, dict] = field(default_factory=dict)
    cell_ms: List[float] = field(default_factory=list)
    trace: Optional[dict] = None
    retries: int = 0
    out_bytes: int = 0
    trials_avoided: int = 0


class Workload:
    """One workload: generated inputs, timed iterations and checks."""

    name = ""

    def __init__(self, seed: int, tiny: bool, scratch: str) -> None:
        self.seed = seed
        self.tiny = tiny
        self.scratch = scratch
        #: Reference key -> {output unit: digest} every iteration must
        #: reproduce: reference.json, else what the first run produced.
        self.expected: Dict[str, Dict[str, str]] = {}

    def use_reference(self) -> None:
        """Pin outputs to bench/reference.json (made at full size)."""
        reference = {}
        if os.path.isfile(REFERENCE_PATH):
            with open(REFERENCE_PATH) as handle:
                reference = json.load(handle)
        sizes = reference.get("sizes", {}).get(self.name)
        if sizes is not None and sizes != self.sizes():
            raise SystemExit(
                f"bench/reference.json was made for {self.name} sizes "
                f"{sizes}, not {self.sizes()}; rerun "
                "python3 bench/make_reference.py"
            )
        self.expected.update(reference.get(self.name, {}))

    # -- what each workload defines ------------------------------------
    def sizes(self) -> dict:
        """The size parameters the reference digests depend on."""
        return {}

    def inputs(self) -> list:
        """The generated inputs the program receives."""
        raise NotImplementedError

    def setup_command(self, out: str) -> List[str]:
        """One set-up sample: a fresh process that exits when ready."""
        return [sys.executable, "-m", "bench.workloads", "--workload",
                self.name, "--seed", str(self.seed), "--out", out,
                "--setup-only"] + (["--tiny"] if self.tiny else [])

    def prepare(self) -> None:
        """In-process warm-up before the timed region."""

    def iterate(self, index: int, traced: bool) -> Outcome:
        raise NotImplementedError

    def digests(self, outcome: Outcome) -> Dict[str, str]:
        """{output unit: digest} of the outputs pinned to the reference."""
        raise NotImplementedError

    def inspect(self, outcome: Outcome) -> List[Problem]:
        """Check the paper's claims and well-formedness; count retries."""
        return []

    def spot_checks(
        self, first: Outcome, count: int
    ) -> List[Tuple[str, Optional[str]]]:
        """Re-run ``count`` seed-chosen cells on the scalar backend.

        Returns (operation, problem or None) per re-run cell.
        """
        return []

    # -- shared --------------------------------------------------------
    def check(self, outcome: Outcome) -> List[Problem]:
        """Every problem with one iteration's outputs."""
        problems = list(outcome.problems)
        if not outcome.complete:
            return problems
        source = "reference" if outcome.key in self.expected else "first run"
        observed = self.digests(outcome)
        expected = self.expected.setdefault(outcome.key, observed)
        for unit in sorted(set(expected) | set(observed)):
            if expected.get(unit) != observed.get(unit):
                op = unit if unit in outcome.ops else outcome.ops[0]
                where = "" if op == unit else f"{unit}: "
                problems.append((op, f"{where}output differs from the {source}"))
        return problems + self.inspect(outcome)


def timed_in_process(outcome: Outcome, traced: bool, body) -> Outcome:
    """Time ``body(tracer)`` in this process, traced on request."""
    if not traced:
        start = time.perf_counter()
        body(None)
        outcome.wall = time.perf_counter() - start
        return outcome
    from repro.perf.counters import COUNTERS, PerfCounters
    from repro.sim import fallback_journal

    tracer = Tracer()
    before = COUNTERS.snapshot()
    fallbacks = len(fallback_journal())
    tracer.install()
    try:
        start = time.perf_counter()
        root = tracer.open(ROOT)
        try:
            body(tracer)
        finally:
            tracer.close(root)
            outcome.wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    outcome.trace = {
        "spans": tracer.spans,
        "counters": PerfCounters.delta(before, COUNTERS.snapshot()),
        "fallbacks": [r for _, r in fallback_journal()[fallbacks:]],
    }
    return outcome


# ---------------------------------------------------------------------------
# Cell-record helpers shared by the artifact workloads
# ---------------------------------------------------------------------------

def artifact_cells(out_dir: str) -> Dict[str, dict]:
    """Every experiment-cell record in the artifacts of ``out_dir``."""
    cells: Dict[str, dict] = {}
    for name in ("fig5", "fig8"):
        path = os.path.join(out_dir, f"{name}.json")
        if os.path.isfile(path):
            with open(path) as handle:
                for title, record in json.load(handle)["panels"].items():
                    cells[f"{name}/{title}"] = record
    path = os.path.join(out_dir, "table3.json")
    if os.path.isfile(path):
        with open(path) as handle:
            for category, row in json.load(handle)["cells"].items():
                for key, record in row.items():
                    if record is not None:
                        cells[f"table3/{category}/{key}"] = record
    return cells


def cell_problems(op: str, cells: Dict[str, dict], claims: bool):
    """Failed cells, cells with an errored attempt, VP cells without p < 0.05.

    A ``retried`` or ``degraded`` cell whose attempts raised no error
    was extended by the adaptive policy because its p-value sat near
    the threshold (a no-VP cell at p = 0.06, say): a measured verdict,
    not a failed operation.  Such cells count in ``harness.retries``.
    """
    problems = []
    for label, record in sorted(cells.items()):
        execution = record["execution"]
        errors = [a["error"] for a in execution["attempts"] if a["error"]]
        if execution["classification"] == "failed" or errors:
            problems.append((op, f"{label}: {execution['classification']} "
                                 f"{errors[:1]}"))
        elif claims and record["predictor"] != "none" and not (
            record["pvalue"] < 0.05
        ):
            problems.append((op, f"{label}: VP cell p={record['pvalue']:.4g}"
                                 " is not below 0.05"))
    return problems


def record_counts(outcome: Outcome, cells: Dict[str, dict]) -> None:
    """Non-clean cells and bytes written, for the per-layer metrics."""
    outcome.retries = sum(
        1 for record in cells.values()
        if record["execution"]["classification"] != "clean"
    )
    outcome.out_bytes = tree_bytes(outcome.out_dir)


def journal_spot_checks(
    out_dir: str, n_runs: int, seed: int, sequential: bool, rng, count: int,
) -> List[Tuple[str, Optional[str]]]:
    """Re-run journaled cells on the scalar backend; payloads must match.

    The cells come from ``<out_dir>/checkpoint/cells``, so each re-run
    uses the batched run's exact cell id, variant, channel and
    predictor, under the policy ``repro.harness.persistence.run_all``
    builds.  The Figure 7 RSA cell is skipped: it never uses a backend.
    """
    from repro.core.channels import ChannelType
    from repro.core.variants import variant_by_name
    from repro.harness.runner import (
        AdaptivePolicy, ExecutionPolicy, ResilientExecutor, RetryPolicy,
        SequentialPolicy,
    )

    executor = ResilientExecutor(ExecutionPolicy(
        retry=RetryPolicy(max_retries=2), adaptive=AdaptivePolicy(),
        sequential=SequentialPolicy() if sequential else None,
        backend="scalar",
    ))
    cells_dir = os.path.join(out_dir, "checkpoint", "cells")
    names = sorted(n for n in os.listdir(cells_dir) if not n.startswith("fig7"))
    checks = []
    for name in rng.sample(names, min(count, len(names))):
        with open(os.path.join(cells_dir, name)) as handle:
            journaled = json.load(handle)
        journaled.pop("integrity", None)
        result = journaled["result"]
        cell = executor.run_cell_supervised(
            journaled["cell_id"], variant_by_name(result["variant"]),
            ChannelType(result["channel"]), result["predictor"], n_runs, seed,
        )
        same = digest(cell.to_payload()) == digest(journaled)
        checks.append((f"scalar {journaled['cell_id']} seed {seed}",
                       None if same else "differs from the batched run"))
    return checks


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------

class CliWorkload(Workload):
    """A workload whose iterations run ``python -m repro`` in a fresh process."""

    def args(self, out: str) -> List[str]:
        """The CLI arguments of one iteration writing into ``out``."""
        raise NotImplementedError

    def reference_key(self) -> str:
        return str(self.seed)

    def inputs(self) -> list:
        return self.args("<out>")

    def setup_command(self, out: str) -> List[str]:
        # The fixed cost every CLI command pays: start, import, exit.
        return [sys.executable, "-m", "repro", "table1"]

    def iterate(self, index: int, traced: bool) -> Outcome:
        """Run the command (traced through ``bench.launch`` on request)."""
        out = tempfile.mkdtemp(dir=self.scratch)
        args = self.args(out)
        if traced:
            trace_path = os.path.join(self.scratch, f"trace-{index}.json")
            argv = [sys.executable, "-m", "bench.launch", trace_path, "--"]
        else:
            argv = [sys.executable, "-m", "repro"]
        outcome = Outcome(index, self.reference_key(), [f"repro {args[0]}"],
                          out_dir=out)
        start = time.perf_counter()
        proc = subprocess.run(
            argv + args, cwd=REPO, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        outcome.wall = time.perf_counter() - start
        if proc.returncode != 0:
            outcome.complete = False
            outcome.problems.append((outcome.ops[0], (
                f"exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
            )))
        if traced:
            with open(trace_path) as handle:
                outcome.trace = json.load(handle)
            os.remove(trace_path)
        return outcome


class Paper(CliWorkload):
    """``repro all`` in a fresh process: the six artifacts, cold."""

    name = "paper"

    def __init__(self, seed: int, tiny: bool, scratch: str) -> None:
        self.n_runs = 6 if tiny else 100
        self.units = (
            ("table2.json", "fig5.json") if tiny else
            ("table2.json", "fig5.json", "fig8.json", "fig7.json",
             "table3.json")
        )
        super().__init__(seed, tiny, scratch)

    def sizes(self) -> dict:
        return {"n_runs": self.n_runs}

    def args(self, out: str) -> List[str]:
        args = ["all", "--out", out, "--runs", str(self.n_runs),
                "--seed", str(self.seed), "--backend", "batched"]
        if self.tiny:
            args += ["--artifacts", "table2,fig5"]
        return args

    def digests(self, outcome: Outcome) -> Dict[str, str]:
        paths = [os.path.join(outcome.out_dir, unit) for unit in self.units]
        return {
            unit: file_digest(path)
            for unit, path in zip(self.units, paths) if os.path.isfile(path)
        }

    def inspect(self, outcome: Outcome) -> List[Problem]:
        op = outcome.ops[0]
        cells = artifact_cells(outcome.out_dir)
        record_counts(outcome, cells)
        problems = cell_problems(op, cells, claims=not self.tiny)
        if not self.tiny:
            with open(os.path.join(outcome.out_dir, "fig7.json")) as handle:
                fig7 = json.load(handle)
            if fig7["execution"]["classification"] != "clean":
                problems.append((op, "fig7: RSA cell not clean"))
            elif not fig7["success_rate"] >= 0.9:
                problems.append((op, f"fig7: success rate "
                                     f"{fig7['success_rate']:.3f} < 0.9"))
        return problems

    def spot_checks(self, first: Outcome, count: int):
        return journal_spot_checks(
            first.out_dir, self.n_runs, self.seed, False,
            random.Random(self.seed), count,
        )


class Hunt(CliWorkload):
    """``repro hunt --static`` in a fresh process: 576 combos analysed."""

    name = "hunt"

    def args(self, out: str) -> List[str]:
        return ["hunt", "--static", "--out", out]

    def reference_key(self) -> str:
        # Seedless: the combination space is fixed by Table I.
        return "seedless"

    def digests(self, outcome: Outcome) -> Dict[str, str]:
        path = os.path.join(outcome.out_dir, "hunt_certificate.json")
        return {"hunt_certificate.json": file_digest(path)}

    def inspect(self, outcome: Outcome) -> List[Problem]:
        outcome.out_bytes = tree_bytes(outcome.out_dir)
        path = os.path.join(outcome.out_dir, "hunt_certificate.json")
        with open(path) as handle:
            if json.load(handle).get("certified") is not True:
                return [(outcome.ops[0], "hunt certificate is not certified")]
        return []


class DefenseMatrix(Workload):
    """180 defended cells in one warm process, via ``run_cell``."""

    name = "defense_matrix"

    def __init__(self, seed: int, tiny: bool, scratch: str) -> None:
        self.n_runs = 4 if tiny else 10
        super().__init__(seed, tiny, scratch)
        self._first_r: Dict[str, dict] = {}

    def sizes(self) -> dict:
        return {"n_runs": self.n_runs}

    def cells(self) -> list:
        """(cell id, variant, channel, defense spec, predictor) tuples."""
        from repro.core.channels import ChannelType
        from repro.core.variants import ALL_VARIANTS

        cells = []
        for variant in ALL_VARIANTS:
            channels = [ChannelType.TIMING_WINDOW]
            if ChannelType.PERSISTENT in variant.supported_channels:
                channels.append(ChannelType.PERSISTENT)
            for channel in channels:
                for spec in DEFENSE_SPECS:
                    for predictor in ("lvp", "vtage"):
                        cell_id = (f"{variant.name}/{channel.value}/{spec}/"
                                   f"{predictor}")
                        cells.append((cell_id, variant, channel, spec,
                                      predictor))
        return cells[::15] if self.tiny else cells

    def inputs(self) -> list:
        return [(cell[0], self.n_runs, self.seed) for cell in self.cells()]

    def _run(self, cell, n_runs: int, backend: str) -> dict:
        from repro.cli import parse_defense
        from repro.harness.checkpoint import serialize_result
        from repro.harness.experiment import run_cell

        _, variant, channel, spec, predictor = cell
        return serialize_result(run_cell(
            variant, channel, predictor, n_runs, self.seed,
            defense=parse_defense(spec), backend=backend,
        ))

    def prepare(self) -> None:
        # One cell per variant/channel/predictor, with R and D, fills
        # the program and trace caches every matrix cell reads.
        warm = [cell for cell in self.cells() if cell[3] == "R[3]+D"]
        for cell in warm or self.cells()[:2]:
            self._run(cell, 2, "batched")

    def iterate(self, index: int, traced: bool) -> Outcome:
        outcome = Outcome(index, str(self.seed))

        def body(tracer: Optional[Tracer]) -> None:
            for cell in self.cells():
                cell_id = cell[0]
                outcome.ops.append(cell_id)
                if tracer is not None:
                    tracer.op = cell_id
                start = time.perf_counter()
                try:
                    outcome.payloads[cell_id] = self._run(
                        cell, self.n_runs, "batched"
                    )
                except Exception as error:  # one failed op; keep going
                    outcome.problems.append(
                        (cell_id, f"{type(error).__name__}: {error}")
                    )
                outcome.cell_ms.append((time.perf_counter() - start) * 1e3)

        return timed_in_process(outcome, traced, body)

    def digests(self, outcome: Outcome) -> Dict[str, str]:
        # R cells are pinned run to run (inspect), not to the reference.
        return {
            cell_id: digest(payload)
            for cell_id, payload in outcome.payloads.items()
            if not is_r_cell(cell_id.split("/")[2])
        }

    def inspect(self, outcome: Outcome) -> List[Problem]:
        problems = []
        for cell_id, payload in outcome.payloads.items():
            if not is_r_cell(cell_id.split("/")[2]):
                continue
            mapped = payload["mapped_samples"]
            unmapped = payload["unmapped_samples"]
            if not (
                len(mapped) == len(unmapped) == self.n_runs
                and all(math.isfinite(x) for x in mapped + unmapped)
                and payload["mean_trial_cycles"] > 0
            ):
                problems.append((cell_id, "malformed R-cell result"))
            elif self._first_r.setdefault(cell_id, payload) != payload:
                problems.append((cell_id, "R cell differs from the first pass"))
        return problems

    def spot_checks(self, first: Outcome, count: int):
        rng = random.Random(self.seed)
        cells = self.cells()
        chosen = [rng.choice([c for c in cells if is_r_cell(c[3])])]
        chosen += rng.sample([c for c in cells if not is_r_cell(c[3])],
                             count - 1)
        checks = []
        for cell in chosen:
            same = self._run(cell, self.n_runs, "scalar") == \
                first.payloads.get(cell[0])
            checks.append((f"scalar {cell[0]}", None if same else (
                "differs from the batched run"
            )))
        return checks


class SeedSweep(Workload):
    """Group-sequential Table III over consecutive seeds, warm."""

    name = "seed_sweep"

    def __init__(self, seed: int, tiny: bool, scratch: str) -> None:
        self.n_runs = 20 if tiny else 100
        self.block = 2 if tiny else 30
        super().__init__(seed, tiny, scratch)

    def sizes(self) -> dict:
        return {"n_runs": self.n_runs}

    def inputs(self) -> list:
        return [self.seed + k for k in range(self.block)]

    def _run_all(self, seed: int) -> str:
        from repro.harness.persistence import run_all
        from repro.harness.runner import SequentialPolicy

        out = tempfile.mkdtemp(dir=self.scratch)
        run_all(out, n_runs=self.n_runs, seed=seed, artifacts=["table3"],
                sequential=SequentialPolicy(), backend="batched")
        return out

    def prepare(self) -> None:
        shutil.rmtree(self._run_all(self.seed + self.block))

    def iterate(self, index: int, traced: bool) -> Outcome:
        seed = self.seed + index % self.block
        outcome = Outcome(index, str(seed), [f"seed {seed}"])

        def body(tracer: Optional[Tracer]) -> None:
            if tracer is not None:
                tracer.op = seed
            try:
                outcome.out_dir = self._run_all(seed)
            except Exception as error:  # a failed op; keep going
                outcome.complete = False
                outcome.problems.append(
                    (outcome.ops[0], f"{type(error).__name__}: {error}")
                )

        return timed_in_process(outcome, traced, body)

    def digests(self, outcome: Outcome) -> Dict[str, str]:
        return {
            label: digest(record)
            for label, record in artifact_cells(outcome.out_dir).items()
        }

    def inspect(self, outcome: Outcome) -> List[Problem]:
        cells = artifact_cells(outcome.out_dir)
        record_counts(outcome, cells)
        with open(os.path.join(outcome.out_dir, "run_summary.json")) as handle:
            summary = json.load(handle)
        outcome.trials_avoided = summary["sequential_summary"]["trials_avoided"]
        return cell_problems(outcome.ops[0], cells, claims=not self.tiny)

    def spot_checks(self, first: Outcome, count: int):
        return journal_spot_checks(
            first.out_dir, self.n_runs, int(first.key), True,
            random.Random(self.seed), count,
        )


WORKLOADS = {w.name: w for w in (Paper, DefenseMatrix, SeedSweep, Hunt)}


# ---------------------------------------------------------------------------
# The measurement loop
# ---------------------------------------------------------------------------

@dataclass
class Report:
    """Everything one run measured and every problem it found."""

    attempted: int = 0
    failed_ops: Set[Tuple[object, str]] = field(default_factory=set)
    problems: List[str] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    outcomes: List[Outcome] = field(default_factory=list)

    def record(self, stage: object, ops: List[str],
               problems: List[Problem]) -> None:
        self.attempted += len(ops)
        for op, message in problems:
            self.failed_ops.add((stage, op))
            self.problems.append(f"{op}: {message}")


def measure(workload: Workload, seconds: float, trace: bool, out: str,
            setup_samples: int) -> Report:
    """Set-up samples, then timed iterations until ``seconds`` pass.

    In a traced run the iterations alternate untraced and traced, so
    the run also measures the tracing overhead; it takes no set-up
    samples, since set-up time is an end-to-end metric.  Each
    iteration's outputs are checked outside its timed region.
    """
    report = Report()
    for sample in range(0 if trace else setup_samples):
        start = time.perf_counter()
        code = subprocess.call(
            workload.setup_command(out), cwd=REPO,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        report.setup_s.append(time.perf_counter() - start)
        op = f"set-up {sample}"
        report.record("setup", [op], [(op, f"exited {code}")] if code else [])
    workload.prepare()

    deadline = time.perf_counter() + seconds
    index = 0
    while index < (2 if trace else 1) or time.perf_counter() < deadline:
        outcome = workload.iterate(index, traced=trace and index % 2 == 1)
        report.record(index, outcome.ops, workload.check(outcome))
        report.outcomes.append(outcome)
        if index and outcome.out_dir:
            shutil.rmtree(outcome.out_dir)
        index += 1

    first = report.outcomes[0]
    if first.complete:
        checks = workload.spot_checks(first, SPOT_CHECKS)
        report.record("spot", [op for op, _ in checks],
                      [(op, problem) for op, problem in checks if problem])
    return report


def end_to_end(report: Report) -> Dict[str, Tuple[float, int]]:
    """Untraced metrics as (value, sample count); the parent adds RSS."""
    walls = [o.wall for o in report.outcomes]
    return {
        "wall_s": (statistics.median(walls), len(walls)),
        "setup_s": (statistics.median(report.setup_s), len(report.setup_s)),
    }


def diagnostics(report: Report) -> Dict[str, Tuple[float, int]]:
    """Numbers shown beside the end-to-end metrics, without a bound."""
    cells = [ms for o in report.outcomes if o.trace is None for ms in o.cell_ms]
    metrics = {
        "error_rate": (len(report.failed_ops) / max(report.attempted, 1),
                       report.attempted),
    }
    if len(cells) > 1:
        deciles = statistics.quantiles(cells, n=10, method="inclusive")
        metrics["cell_p50_ms"] = (deciles[4], len(cells))
        metrics["cell_p90_ms"] = (deciles[8], len(cells))
    return metrics


#: Fallback-reason buckets: (metric suffix, text in the journaled reason).
_FALLBACK_REASONS = (
    ("rng_guard", "RNG"),
    ("nested_speculation", "nested speculation"),
    ("nonuniform_value", "non-uniform"),
)


def layer_metrics(report: Report) -> Dict[str, Tuple[float, int]]:
    """Traced metrics, per traced iteration, as (value, sample count)."""
    traced = [o for o in report.outcomes if o.trace is not None]
    untraced = [o for o in report.outcomes if o.trace is None]
    n = len(traced)
    summary = summarize([s for o in traced for s in o.trace["spans"]])
    counters: Dict[str, int] = {}
    reasons: Dict[str, int] = {}
    for outcome in traced:
        for key, value in outcome.trace["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for reason in outcome.trace["fallbacks"]:
            bucket = next((name for name, text in _FALLBACK_REASONS
                           if text in reason), "other")
            reasons[bucket] = reasons.get(bucket, 0) + 1

    # Self time as a share of the root span: a layer a workload never
    # enters reads 0 without being a constant time, and shares do not
    # move when the whole host slows down.
    root_s = summary[ROOT]["total_s"] / n
    metrics: Dict[str, Tuple[float, int]] = {}
    for layer in LAYER_NAMES:
        metrics[f"{layer}.calls"] = (summary[layer]["calls"] / n, n)
        metrics[f"{layer}.self_share"] = (
            summary[layer]["self_s"] / summary[ROOT]["total_s"], n)
    traced_wall = statistics.median(o.wall for o in traced)
    untraced_wall = statistics.median(o.wall for o in untraced)
    trials = counters.get("trials", 0) / n
    vector = counters.get("batched_vector_trials", 0) / n
    builds = summary["sim.lockstep.build"]["calls"] / n
    metrics.update({
        "residual.self_share": (
            summary[ROOT]["self_s"] / summary[ROOT]["total_s"], n),
        "trace.root_s": (root_s, n),
        "trace.wall_s": (traced_wall, n),
        "trace.untraced_wall_s": (untraced_wall, len(untraced)),
        "trace_overhead": (traced_wall / untraced_wall - 1, n),
        "trace.iterations": (n, n),
        "sim.trials": (trials, n),
        "sim.vector_trials": (vector, n),
        "sim.fallback_trials": (
            counters.get("batched_fallback_trials", 0) / n, n),
        "sim.vectorized_fraction": (vector / trials if trials else 0.0, n),
        "sim.lanes_per_build": (vector / builds if builds else 0.0, n),
        "sim.fallback_events": (sum(reasons.values()) / n, n),
        "sim.simulated_cycles": (counters.get("simulated_cycles", 0) / n, n),
        "sim.trials_per_s": (trials / root_s if root_s else 0.0, n),
        "harness.retries": (statistics.mean(o.retries for o in traced), n),
        "harness.out_bytes": (statistics.mean(o.out_bytes for o in traced), n),
        "stats.trials_avoided": (
            statistics.mean(o.trials_avoided for o in traced), n),
    })
    for name, _ in _FALLBACK_REASONS + (("other", ""),):
        metrics[f"sim.fallback_events.{name}"] = (reasons.get(name, 0) / n, n)
    return metrics


def write_trace(report: Report, path: str) -> None:
    """Every traced iteration's spans, counters and fallback reasons."""
    with open(path, "w") as handle:
        json.dump({"iterations": [
            {"index": o.index, "wall_s": o.wall, **o.trace}
            for o in report.outcomes if o.trace is not None
        ]}, handle)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True,
                        help="directory for scratch outputs and traces")
    parser.add_argument("--result", help="where to write the result JSON")
    parser.add_argument("--tiny", action="store_true",
                        help="small sizes, for the benchmark's self-test")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, then exit: one set-up sample")
    args = parser.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=args.out, prefix=f"{args.workload}-")
    try:
        workload = WORKLOADS[args.workload](args.seed, args.tiny, scratch)
        if args.setup_only:
            workload.prepare()
            return 0
        if not args.tiny:
            workload.use_reference()
        report = measure(workload, args.seconds, bool(args.trace), args.out,
                         1 if args.tiny else SETUP_SAMPLES)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if args.trace:
        metrics = layer_metrics(report)
        write_trace(report, os.path.join(args.out,
                                         f"trace-{args.workload}.json"))
    else:
        metrics = end_to_end(report)
    result = {
        "correct": not report.failed_ops,
        "attempted": report.attempted,
        "failed": len(report.failed_ops),
        "problems": report.problems[:20],
        "inputs_digest": digest(workload.inputs()),
        "metrics": {k: {"value": v, "n": n} for k, (v, n) in metrics.items()},
        "diagnostics": {
            k: {"value": v, "n": n} for k, (v, n) in diagnostics(report).items()
        },
        "samples": {
            "wall_s": [o.wall for o in report.outcomes if o.trace is None],
            "setup_s": report.setup_s,
        },
    }
    with open(args.result, "w") as handle:
        json.dump(result, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
