"""Run the repository benchmark.

    python3 bench/run.py --seed 0                  # all four workloads
    python3 bench/run.py --workload paper --seed 3 --seconds 10 --trace 0
    python3 bench/run.py --trace --seed 0          # per-layer metrics

Each workload runs alone in a fresh child process (``bench.workloads``)
whose environment pins ``REPRO_WORKERS=1`` and ``OMP_NUM_THREADS=1`` and
unsets ``REPRO_BACKEND``, so a small host measures the program rather
than its scheduler.  The runner prints every metric by name with its
unit and sample count, writes a results JSON with host facts under
``.bench_out/``, and ends its output with one JSON line::

    {"correct": true, "attempted": 14, "failed": 0, "metrics": {...}}

Untraced runs report the ``end_to_end`` metrics of BENCHMARK.json and
traced runs the ``per_layer`` ones.  The exit code is nonzero when any
output fails verification, and 2 when the program's sources are not
next to the benchmark.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import signal
import subprocess
import sys
from importlib import metadata

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(REPO, ".bench_out")


def load_benchmark() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        return json.load(handle)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("REPRO_BACKEND", None)
    env.update(
        REPRO_WORKERS="1",
        OMP_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join([os.path.join(REPO, "src"), REPO]),
    )
    return env


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(REPO, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def host_facts() -> dict:
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": git_commit(),
        "platform": platform.platform(),
        "loadavg": os.getloadavg(),
    }


def run_workload(name: str, args) -> dict:
    """One workload in a fresh child; returns the child's result."""
    result_path = os.path.join(OUT, f"child-{name}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    argv = [
        sys.executable, "-m", "bench.workloads", "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out", OUT, "--result", result_path,
    ] + (["--tiny"] if args.tiny else [])
    proc = subprocess.Popen(argv, cwd=REPO, env=child_env(),
                            stdout=sys.stderr, start_new_session=True)
    try:
        # wait4's peak RSS covers the child and every process it reaped.
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not os.path.isfile(result_path):
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "problems": [f"workload process exited {proc.returncode}"]}
    with open(result_path) as handle:
        result = json.load(handle)
    os.remove(result_path)
    if not args.trace:
        result["metrics"]["peak_rss_mb"] = {
            "value": usage.ru_maxrss / 1024, "n": 1,
        }
    return result


def print_result(name: str, result: dict, units: dict) -> None:
    print(f"{name}: {'correct' if result['correct'] else 'FAILED'}, "
          f"{result['attempted']} operations, {result['failed']} failed")
    for problem in result.get("problems", []):
        print(f"  problem: {problem}")
    rows = [(metric, entry, units.get(metric, "")) for metric, entry
            in result["metrics"].items()]
    rows += [(metric, entry, "diagnostic") for metric, entry
             in result.get("diagnostics", {}).items()]
    for metric, entry, unit in rows:
        print(f"  {metric:<34} {entry['value']:>14.6g} {unit:<12} "
              f"n={entry['n']}")


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(REPO, "src", "repro", "__init__.py")):
        print("error: the repro sources (src/repro) are not next to the "
              "benchmark; run it from a full checkout", file=sys.stderr)
        return 2
    spec = load_benchmark()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark (see bench/README.md)."
    )
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="timed seconds per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--tiny", action="store_true",
                        help="small sizes, for the benchmark's self-test")
    parser.add_argument("--results", help="results JSON path (default: "
                        ".bench_out/results-<workload|all>-seed<S>"
                        "[-trace].json)")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the running workload's process
    # group is killed and reaped on the way out (see run_workload).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    os.makedirs(OUT, exist_ok=True)
    # The build step: later set-up samples must not pay for bytecode.
    compileall.compile_dir(os.path.join(REPO, "src"), quiet=1)
    compileall.compile_dir(os.path.join(REPO, "bench"), quiet=1)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in wanted}
    chosen = [args.workload] if args.workload else names
    results = {}
    for name in chosen:
        result = run_workload(name, args)
        if result["metrics"] and set(result["metrics"]) != set(units):
            result["correct"] = False
            result["failed"] += 1
            result.setdefault("problems", []).append(
                "metric names differ from BENCHMARK.json: "
                f"{sorted(set(result['metrics']) ^ set(units))}"
            )
        results[name] = result
        print_result(name, result, units)

    path = args.results or os.path.join(OUT, (
        f"results-{args.workload or 'all'}-seed{args.seed}"
        f"{'-trace' if args.trace else ''}.json"
    ))
    with open(path, "w") as handle:
        json.dump({
            "schema": "bench-results/v1",
            "host": host_facts(),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "tiny": args.tiny,
            "workloads": results,
        }, handle, indent=1)
    print(f"results: {os.path.relpath(path, REPO)}")

    prefix = len(chosen) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (f"{name}.{metric}" if prefix else metric): {
                "value": entry["value"], "unit": units[metric],
            }
            for name, result in results.items()
            for metric, entry in result["metrics"].items()
            if metric in units
        },
    }))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
