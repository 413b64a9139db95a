"""Performance observability for the reproduction itself.

The paper's artifacts are statistical sweeps over a pure-Python cycle
simulator; keeping the sweep engine fast (and *knowing* it stays
fast) is what lets the reproduction scale to campaign-size predictor
ablations.  This package holds the pieces the benches measure with:

* :mod:`repro.perf.counters` — deterministic global counters (cache
  hits for the memoized program/uop caches, trials, simulated
  cycles).  Counting is pure bookkeeping: no clock, no RNG.
* :mod:`repro.perf.memo` — the program-cache memoizer used by
  :mod:`repro.workloads.gadgets` and the assembler.
* :mod:`repro.perf.observe` — wall-clock stopwatches (explicitly
  allow-listed for the determinism lint: host time never touches
  measurements, only throughput reporting) and the
  ``BENCH_sweep.json`` record writer.

The end-to-end benchmark with its per-layer trace lives outside the
package, in ``bench/`` (``python3 bench/run.py``).
"""

from repro.perf.counters import COUNTERS, PerfCounters

__all__ = ["COUNTERS", "PerfCounters"]
