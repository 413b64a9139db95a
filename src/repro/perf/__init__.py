"""Performance observability for the reproduction itself.

The paper's artifacts are statistical sweeps over a pure-Python cycle
simulator; keeping the sweep engine fast (and *knowing* it stays
fast) is what lets the reproduction scale to campaign-size predictor
ablations.  This package holds the pieces the benches measure with:

* :mod:`repro.perf.counters` — deterministic global counters (cache
  hits for the memoized program cache, trials, simulated cycles).
  Counting is pure bookkeeping: no clock, no RNG.
* :mod:`repro.perf.memo` — the program-cache memoizer used by
  :mod:`repro.workloads.gadgets` and the assembler.
* :mod:`repro.perf.observe` — the host-clock reads, ``now()`` and
  ``Stopwatch`` (explicitly allow-listed for the determinism lint:
  host time never touches measurements, only deadlines and
  reporting).

The end-to-end benchmark with its per-layer trace lives outside the
package, in ``bench/`` (``python3 bench/run.py``); it is the one place
that judges the reproduction's speed.
"""

from repro.perf.counters import COUNTERS, PerfCounters

__all__ = ["COUNTERS", "PerfCounters"]
