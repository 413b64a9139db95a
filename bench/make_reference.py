"""Write bench/reference.json: digests of every pinned output at seed 0.

    python3 bench/make_reference.py

Runs each workload once at full size and seed 0 (seed_sweep: its whole
block of seeds), checks the paper's claims on the outputs, re-runs a
sample of cells on the scalar backend, and refuses to write if any
check fails or any re-run differs from the batched run.  The digests
cover simulated samples, cycles and rates, so a change meant only to
speed up the simulator must reproduce them exactly.  R-type defense
cells are left out (they are checked run to run and for well-formedness
only), because their results are meant to change when the R window
draws per-trial streams.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Scalar re-runs per workload before the reference is trusted.
SCALAR_SAMPLE = 4


def main() -> int:
    from bench.run import OUT, child_env
    from bench.workloads import REFERENCE_PATH, SeedSweep, WORKLOADS

    # The environment bench/run.py gives its children, for this process
    # (in-process workloads) and the CLI processes it starts.
    os.environ.pop("REPRO_BACKEND", None)
    os.environ.update(child_env())
    os.makedirs(OUT, exist_ok=True)
    reference = {
        "schema": "bench-reference/v1",
        "seed": 0,
        "excluded": "defense_matrix cells with an R[n] defense",
        "sizes": {},
    }
    scratch = tempfile.mkdtemp(dir=OUT, prefix="reference-")
    try:
        for cls in WORKLOADS.values():
            workload = cls(0, False, scratch)
            workload.prepare()
            problems = []
            block = workload.block if isinstance(workload, SeedSweep) else 1
            for index in range(block):
                outcome = workload.iterate(index, traced=False)
                problems += workload.check(outcome)
                if index == 0 and outcome.complete:
                    problems += [
                        (op, problem) for op, problem in
                        workload.spot_checks(outcome, SCALAR_SAMPLE) if problem
                    ]
                if outcome.out_dir:
                    shutil.rmtree(outcome.out_dir)
            if problems:
                for _, message in problems:
                    print(f"{workload.name}: {message}", file=sys.stderr)
                print("error: reference not written", file=sys.stderr)
                return 1
            reference["sizes"][workload.name] = workload.sizes()
            reference[workload.name] = workload.expected
            print(f"{workload.name}: {sum(map(len, workload.expected.values()))}"
                  " digests")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.relpath(REFERENCE_PATH, REPO)}")
    return 0


if __name__ == "__main__":
    sys.path[0] = REPO
    sys.path.insert(1, os.path.join(REPO, "src"))
    sys.exit(main())
