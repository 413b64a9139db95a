"""Compare benchmark results of a parent commit and a change.

    python3 bench/compare.py --parent P1.json P2.json ... \\
        --change C1.json C2.json ...

Every file is a results JSON written by ``bench/run.py`` (by default
``.bench_out/results-<workload|all>-seed<S>.json``).  Give each side the same number
of runs, made in alternating order (parent, change, parent, ...), and
list them in that order so the files pair up.  For each workload and
metric the tool prints each side's median and quartiles, the relative
change of the median, the bound from BENCHMARK.json and a verdict:

``better``
    The change wins at least 9 of every 10 pairs, ties counting for
    neither, over at least 10 pairs; its median differs from the
    parent's by more than the parent's quartile spread; and no more of
    its operations failed.
``worse``
    The change's median is worse than the parent's by more than the
    bound, or more of its operations failed.
``unresolved``
    The parent's own quartile spread exceeds the bound, so the runs
    cannot tell a regression from noise; unless every change run
    reads better than every parent run.
``no-worse``
    Anything else.

Metrics without a bound (the per-layer ones) get ``-``.  The exit code
is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(paths: List[str]) -> Tuple[Dict[Tuple[str, str], List[float]],
                                    Dict[str, int]]:
    """Metric values per (workload, metric), and failures per workload."""
    values: Dict[Tuple[str, str], List[float]] = {}
    failed: Dict[str, int] = {}
    for path in paths:
        with open(path) as handle:
            results = json.load(handle)
        for workload, result in results["workloads"].items():
            failed[workload] = failed.get(workload, 0) + result["failed"]
            for metric, entry in result["metrics"].items():
                values.setdefault((workload, metric), []).append(entry["value"])
    return values, failed


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: List[float], change: List[float], better: str,
            bound: float, more_failures: bool) -> str:
    """The verdict for one workload and metric (see the module doc)."""
    sign = 1 if better == "lower" else -1  # sign * (c - p) > 0: worse
    p_median, c_median = statistics.median(parent), statistics.median(change)
    p_q1, _, p_q3 = quartiles(parent)
    if more_failures:
        return "worse"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and abs(c_median - p_median) > p_q3 - p_q1
    ):
        return "better"
    if (p_q3 - p_q1) / abs(p_median) > bound and not all(
        sign * (c - p) < 0 for c in change for p in parent
    ):
        return "unresolved"
    if sign * (c_median - p_median) / abs(p_median) > bound:
        return "worse"
    return "no-worse"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare bench/run.py results of a parent and a change."
    )
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    metrics = spec["end_to_end"] + spec["per_layer"]
    parent, parent_failed = load(args.parent)
    change, change_failed = load(args.change)

    print(f"{'workload':<15} {'metric':<34} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'delta':>8} {'bound':>6}  verdict")
    worse = False
    for workload in [w["name"] for w in spec["workloads"]]:
        more_failures = (change_failed.get(workload, 0)
                         > parent_failed.get(workload, 0))
        for metric in metrics:
            key = (workload, metric["name"])
            if key not in parent or key not in change:
                continue
            p, c = parent[key], change[key]
            p_q1, p_med, p_q3 = quartiles(p)
            c_q1, c_med, c_q3 = quartiles(c)
            delta = (c_med - p_med) / abs(p_med) if p_med else 0.0
            bound = metric.get("bound")
            result = "-" if bound is None else verdict(
                p, c, metric["better"], bound, more_failures
            )
            worse = worse or result == "worse"
            p_text = f"{p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}]"
            c_text = f"{c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}]"
            bound_text = "-" if bound is None else f"{bound:.0%}"
            print(f"{workload:<15} {metric['name']:<34} {p_text:>30} "
                  f"{c_text:>30} {delta:>+8.1%} {bound_text:>6}  {result}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
