"""Set-associative cache model.

Timing is handled by :mod:`repro.memory.hierarchy`; this module only
models presence/absence of lines, replacement, and flush — which is
all the attacks need from a cache:

* a *miss* engages the Value Prediction System (load-based VPS);
* ``clflush`` forces misses ("the miss ... can be forced by a
  malicious attacker that invalidates or flushes the cache");
* line persistence after a squash is the paper's persistent channel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import MemorySystemError
from repro.memory.replacement import ReplacementPolicy, make_policy


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass
class CacheStats:
    """Hit/miss/fill/eviction counters for one cache."""

    hits: int = 0
    misses: int = 0
    fills: int = 0
    evictions: int = 0
    flushes: int = 0

    @property
    def accesses(self) -> int:
        """Total number of accesses."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits divided by accesses (0 when idle)."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def reset(self) -> None:
        """Zero every counter (cache contents are untouched)."""
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.evictions = 0
        self.flushes = 0


class SetAssociativeCache:
    """A set-associative cache tracking line presence.

    Args:
        name: Name used in stats and traces (e.g. ``"L1D"``).
        size_bytes: Total capacity in bytes.
        ways: Associativity.
        line_size: Line size in bytes (power of two).
        policy: Replacement policy name (``lru``, ``fifo``, ``random``).
        rng: Seeded generator for the random policy.
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        ways: int,
        line_size: int = 64,
        policy: str = "lru",
        rng: Optional[random.Random] = None,
    ) -> None:
        if not _is_power_of_two(line_size):
            raise MemorySystemError(f"line_size must be a power of two, got {line_size}")
        if size_bytes <= 0 or size_bytes % (ways * line_size) != 0:
            raise MemorySystemError(
                f"size {size_bytes} is not divisible by ways*line_size "
                f"({ways}*{line_size})"
            )
        num_sets = size_bytes // (ways * line_size)
        if not _is_power_of_two(num_sets):
            raise MemorySystemError(f"number of sets must be a power of two, got {num_sets}")
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_size = line_size
        self.num_sets = num_sets
        self.stats = CacheStats()
        # Reject an unknown policy name now, not on the first fill.
        make_policy(policy, ways, rng=rng)
        self._policy_name = policy
        self._rng = rng
        # Sets touched so far, each a list of tags (None = invalid) and
        # a replacement policy.  A set is created on its first fill; an
        # absent set is empty.
        self._sets: Dict[int, Tuple[List[Optional[int]], ReplacementPolicy]] = {}

    def reset(self, rng_seed: Optional[int] = None) -> None:
        """Restore the as-constructed state (warm-machine reset protocol).

        Drops every set, zeroes the stats and — when ``rng_seed`` is
        given — reseeds the shared replacement RNG, so a reset cache is
        byte-identical to one freshly constructed with the same
        parameters.  Sets and their replacement policies are created
        again on their next fill, exactly as in a fresh cache.
        """
        self._sets.clear()
        if self._rng is not None and rng_seed is not None:
            self._rng.seed(rng_seed)
        self.stats.reset()

    # ------------------------------------------------------------------
    def _index_tag(self, addr: int) -> Tuple[int, int]:
        line = addr // self.line_size
        return line % self.num_sets, line // self.num_sets

    def lookup(self, addr: int, update_replacement: bool = True) -> bool:
        """True if the line containing ``addr`` is present.

        Updates hit/miss stats and (on hit) the replacement state.
        """
        set_index, tag = self._index_tag(addr)
        entry = self._sets.get(set_index)
        if entry is not None:
            tags, set_policy = entry
            for way, existing in enumerate(tags):
                if existing == tag:
                    self.stats.hits += 1
                    if update_replacement:
                        set_policy.on_access(way)
                    return True
        self.stats.misses += 1
        return False

    def contains(self, addr: int) -> bool:
        """Presence check with no side effects on stats or replacement."""
        set_index, tag = self._index_tag(addr)
        entry = self._sets.get(set_index)
        return entry is not None and tag in entry[0]

    def set_index(self, addr: int) -> int:
        """The set the line containing ``addr`` maps to."""
        return self._index_tag(addr)[0]

    def set_occupancy(self, addr: int) -> int:
        """Valid lines in the set the line containing ``addr`` maps to."""
        entry = self._sets.get(self._index_tag(addr)[0])
        return 0 if entry is None else sum(
            tag is not None for tag in entry[0]
        )

    def fill(self, addr: int) -> Optional[int]:
        """Bring the line containing ``addr`` in.

        Returns the *address* of an evicted line, or ``None`` if no
        valid line was evicted.  Filling an already-present line only
        refreshes replacement state.
        """
        set_index, tag = self._index_tag(addr)
        entry = self._sets.get(set_index)
        if entry is None:
            entry = self._sets[set_index] = (
                [None] * self.ways,
                make_policy(self._policy_name, self.ways, rng=self._rng),
            )
        tags, set_policy = entry
        for way, existing in enumerate(tags):
            if existing == tag:
                set_policy.on_access(way)
                return None
        valid = [existing is not None for existing in tags]
        way = set_policy.victim(valid)
        evicted_tag = tags[way]
        evicted_addr: Optional[int] = None
        if evicted_tag is not None:
            self.stats.evictions += 1
            evicted_addr = (evicted_tag * self.num_sets + set_index) * self.line_size
        tags[way] = tag
        set_policy.on_access(way)
        self.stats.fills += 1
        return evicted_addr

    def invalidate(self, addr: int) -> bool:
        """Remove the line containing ``addr``; True if it was present."""
        set_index, tag = self._index_tag(addr)
        entry = self._sets.get(set_index)
        if entry is None:
            return False
        tags, set_policy = entry
        for way, existing in enumerate(tags):
            if existing == tag:
                tags[way] = None
                set_policy.on_invalidate(way)
                self.stats.flushes += 1
                return True
        return False

    # ------------------------------------------------------------------
    def resident_lines(self) -> List[int]:
        """Addresses of all currently valid lines (for tests/inspection)."""
        lines = []
        for set_index, (tags, _) in self._sets.items():
            for tag in tags:
                if tag is not None:
                    lines.append((tag * self.num_sets + set_index) * self.line_size)
        return sorted(lines)

    def occupancy(self) -> int:
        """Number of valid lines."""
        return sum(
            1 for tags, _ in self._sets.values() for tag in tags if tag is not None
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SetAssociativeCache({self.name!r}, {self.size_bytes}B, "
            f"{self.ways}-way, {self.num_sets} sets, line={self.line_size})"
        )
