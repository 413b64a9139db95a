"""Self-test of the benchmark, at tiny sizes: ``pytest bench/``."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from bench import workloads
from bench.run import child_env
from bench.trace import LAYER_NAMES

REPO = workloads.REPO
if os.path.join(REPO, "src") not in sys.path:
    sys.path.insert(0, os.path.join(REPO, "src"))


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_bench(tmp_path, *args):
    """A tiny run of bench/run.py; returns (results JSON, last stdout line)."""
    results = tmp_path / "results.json"
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--tiny", "--seconds", "0",
         "--results", str(results), *args],
        cwd=REPO, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(results) as handle:
        return json.load(handle), json.loads(proc.stdout.splitlines()[-1])


def test_printed_names_match_benchmark_json(tmp_path, spec):
    results, last = run_bench(tmp_path, "--seed", "0")
    end_to_end = {metric["name"] for metric in spec["end_to_end"]}
    assert list(results["workloads"]) == [w["name"] for w in spec["workloads"]]
    for name, result in results["workloads"].items():
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == end_to_end
        assert all(entry["n"] >= 1 for entry in result["metrics"].values())
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == {
        f"{w}.{m}" for w in results["workloads"] for m in end_to_end
    }


def test_corrupted_artifact_raises_error_rate(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", child_env()["PYTHONPATH"])
    paper = workloads.Paper(0, True, str(tmp_path))
    clean = paper.iterate(0, traced=False)
    assert paper.check(clean) == []  # pins the clean digests
    produce = paper.iterate

    def corrupted(index, traced):
        outcome = produce(index, traced)
        path = os.path.join(outcome.out_dir, "fig5.json")
        with open(path) as handle:
            text = handle.read()
        with open(path, "w") as handle:
            handle.write(text.replace('"n_runs": 6', '"n_runs": 7', 1))
        return outcome

    monkeypatch.setattr(paper, "iterate", corrupted)
    report = workloads.measure(paper, 0, False, str(tmp_path), 0)
    error_rate, attempted = workloads.diagnostics(report)["error_rate"]
    assert attempted > 0 and error_rate > 0
    assert any("fig5.json" in problem for problem in report.problems)


@pytest.mark.parametrize("name, seeded", [
    ("paper", True), ("defense_matrix", True), ("seed_sweep", True),
    ("hunt", False),
])
def test_seed_changes_generated_inputs(tmp_path, name, seeded):
    make = workloads.WORKLOADS[name]
    first = make(0, False, str(tmp_path)).inputs()
    assert first == make(0, False, str(tmp_path)).inputs()
    assert (first != make(1, False, str(tmp_path)).inputs()) == seeded


@pytest.mark.parametrize("name", ["defense_matrix", "paper"])
def test_layer_self_times_add_up_to_the_root(tmp_path, spec, name):
    results, last = run_bench(tmp_path, "--workload", name, "--trace", "1")
    assert set(last["metrics"]) == {m["name"] for m in spec["per_layer"]}
    metrics = {k: v["value"] for k, v in results["workloads"][name]["metrics"]
               .items()}
    # Self times are reported as shares of the root span.
    layers = sum(metrics[f"{layer}.self_share"] for layer in LAYER_NAMES)
    assert metrics["trace.root_s"] > 0
    assert abs(layers + metrics["residual.self_share"] - 1) <= 0.01
    if name == "defense_matrix":
        assert metrics["analysis.preflight.calls"] == 0
        assert metrics["sim.fallback.calls"] > 0
    else:
        assert metrics["sim.fallback.calls"] == 0
        assert metrics["startup.calls"] == 1
