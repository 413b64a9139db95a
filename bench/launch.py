"""Run one ``repro`` CLI command with the layer tracer installed.

    python3 -m bench.launch TRACE_OUT -- all --out DIR --runs 100

A root span covers the whole command; inside it ``import repro.cli``
is timed as the ``startup`` layer and ``repro.cli.main(argv)`` runs
with every layer entry point wrapped (:mod:`bench.trace`).  At exit the
spans, the deltas of ``repro.perf.counters.COUNTERS`` and the reasons
recorded in ``repro.sim.fallback_journal()`` are written to TRACE_OUT
as JSON.  The exit code is the command's own.
"""

from __future__ import annotations

import json
import sys

from bench.trace import ROOT, STARTUP, Tracer


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: python3 -m bench.launch TRACE_OUT -- <repro args>",
              file=sys.stderr)
        return 2
    trace_out, args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    root = tracer.open(ROOT)
    startup = tracer.open(STARTUP)
    import repro.cli
    from repro.perf.counters import COUNTERS, PerfCounters
    from repro.sim import fallback_journal

    tracer.close(startup)
    before = COUNTERS.snapshot()
    try:
        return repro.cli.main(args)
    finally:
        tracer.close(root)
        with open(trace_out, "w") as handle:
            json.dump({
                "spans": tracer.spans,
                "counters": PerfCounters.delta(before, COUNTERS.snapshot()),
                "fallbacks": [reason for _, reason in fallback_journal()],
            }, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
