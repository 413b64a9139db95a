"""Wall-clock observation.

This module is the *only* sanctioned home for host-time reads in the
sweep path.  Host time never influences a simulated measurement — the
simulator's clock is its own cycle counter — so the determinism lint
allows the reads here explicitly via pragmas.  Everything that touches
results (seeds, latencies, thresholds) stays wall-clock free.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Optional


def now() -> float:
    """Monotonic host timestamp in seconds (reporting only)."""
    return time.perf_counter()  # lint: allow(wall-clock)


@dataclass
class Stopwatch:
    """Accumulating stopwatch for throughput reporting.

    Use as a context manager around units of work; ``elapsed`` sums
    every timed region.  Purely observational: nothing simulated ever
    reads it.
    """

    elapsed: float = 0.0
    laps: int = 0
    _started: Optional[float] = field(default=None, repr=False)

    def __enter__(self) -> "Stopwatch":
        self._started = now()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        assert self._started is not None
        self.elapsed += now() - self._started
        self._started = None
        self.laps += 1
