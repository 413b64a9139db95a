"""DRAM latency model and backing value store.

Two concerns live here:

* :class:`DramModel` — main-memory access latency with configurable
  jitter and occasional long-tail disturbances.  Realistic dispersion
  matters because the paper judges attacks by whether two *timing
  distributions* are statistically distinguishable (Student's t-test
  over 100 runs); a noiseless model would make every attack trivially
  "work".
* :class:`BackingStore` — the architectural memory contents.  Value
  prediction is about *data values*: a prediction verifies correctly
  iff the predicted value equals the loaded one, so the simulator
  needs real values behind every address.  Unwritten locations return
  a deterministic pseudo-random default so two unrelated addresses
  essentially never hold equal values (the paper's footnote 4 makes
  the same ~2^-64 collision argument).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import MemorySystemError

_VALUE_MASK = (1 << 64) - 1


def _splitmix64(value: int) -> int:
    """SplitMix64 mixing function; deterministic default memory values."""
    value = (value + 0x9E3779B97F4A7C15) & _VALUE_MASK
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _VALUE_MASK
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _VALUE_MASK
    return value ^ (value >> 31)


@dataclass
class DramConfig:
    """Main-memory timing parameters (cycles).

    Attributes:
        base_latency: Minimum access latency.
        jitter: Uniform extra latency in ``[0, jitter]`` per access,
            modelling row-buffer state, scheduling and interconnect
            variation.
        tail_probability: Probability of an additional long-tail delay
            (e.g. refresh collision).
        tail_extra: Size of the long-tail delay in cycles.
    """

    base_latency: int = 180
    jitter: int = 24
    tail_probability: float = 0.02
    tail_extra: int = 60

    def __post_init__(self) -> None:
        if self.base_latency < 1:
            raise MemorySystemError("DRAM base latency must be >= 1")
        if self.jitter < 0:
            raise MemorySystemError("DRAM jitter must be >= 0")
        if not 0.0 <= self.tail_probability <= 1.0:
            raise MemorySystemError("tail probability must be in [0, 1]")
        if self.tail_extra < 0:
            raise MemorySystemError("tail extra latency must be >= 0")


def dram_latency(config: DramConfig, rng: random.Random) -> int:
    """One main-memory access latency, in cycles, drawn from ``rng``.

    The DRAM draw of both engines: :class:`DramModel` makes it from its
    own stream, and the lockstep engine from each lane's.
    """
    latency = config.base_latency
    if config.jitter:
        latency += rng.randint(0, config.jitter)
    if config.tail_extra and rng.random() < config.tail_probability:
        latency += config.tail_extra
    return latency


class DramModel:
    """Draws per-access main-memory latencies from a seeded generator."""

    def __init__(self, config: Optional[DramConfig] = None,
                 rng: Optional[random.Random] = None) -> None:
        self.config = config or DramConfig()
        self._rng = rng or random.Random(0xD7A3)
        self.accesses = 0

    def reset(self, rng_seed: Optional[int] = None) -> None:
        """Reseed the latency stream and zero the access counter.

        With the seed a fresh construction would have used, the reset
        model draws the exact latency sequence of a new
        :class:`DramModel` — the warm-machine reset protocol.
        """
        if rng_seed is not None:
            self._rng.seed(rng_seed)
        self.accesses = 0

    def access_latency(self) -> int:
        """Latency of one main-memory access, in cycles."""
        self.accesses += 1
        return dram_latency(self.config, self._rng)


class BackingStore:
    """Architectural memory values, keyed by physical address.

    Unwritten addresses return a deterministic pseudo-random 64-bit
    default derived from the address, so distinct locations hold
    distinct-looking values.
    """

    def __init__(self, default_seed: int = 0) -> None:
        self._values: Dict[int, int] = {}
        self._default_seed = default_seed & _VALUE_MASK

    def read(self, paddr: int) -> int:
        """Value at ``paddr`` (deterministic default when unwritten)."""
        try:
            return self._values[paddr]
        except KeyError:
            return _splitmix64(paddr ^ self._default_seed)

    def write(self, paddr: int, value: int) -> None:
        """Store ``value`` (truncated to 64 bits) at ``paddr``."""
        self._values[paddr] = value & _VALUE_MASK

    def is_written(self, paddr: int) -> bool:
        """True if ``paddr`` was explicitly written."""
        return paddr in self._values

    def written_count(self) -> int:
        """Number of explicitly written locations."""
        return len(self._values)

    def clear(self) -> None:
        """Forget all explicit writes (defaults become visible again)."""
        self._values.clear()

    def reset(self, default_seed: Optional[int] = None) -> None:
        """Forget writes and (optionally) rebase the default values."""
        self._values.clear()
        if default_seed is not None:
            self._default_seed = default_seed & _VALUE_MASK
