"""A small fully-associative TLB model.

The TLB contributes realistic extra latency on the first touch of a
page.  Entries are keyed by (pid, virtual page number) so processes do
not share translations.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Tuple

from repro.errors import MemorySystemError


@dataclass
class TlbStats:
    """Hit/miss counters for the TLB."""

    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        """Total number of accesses."""
        return self.hits + self.misses

    def reset(self) -> None:
        """Zero both counters (translations are untouched)."""
        self.hits = 0
        self.misses = 0


class Tlb:
    """Fully-associative, LRU-replaced translation lookaside buffer.

    Args:
        entries: Capacity in translations.
        page_size: Page size in bytes (power of two).
        walk_latency: Extra cycles added on a TLB miss (page walk).
    """

    def __init__(
        self,
        entries: int = 64,
        page_size: int = 4096,
        walk_latency: int = 30,
    ) -> None:
        if entries < 1:
            raise MemorySystemError(f"TLB entries must be >= 1, got {entries}")
        if page_size <= 0 or (page_size & (page_size - 1)) != 0:
            raise MemorySystemError(f"page_size must be a power of two, got {page_size}")
        if walk_latency < 0:
            raise MemorySystemError(f"walk_latency must be >= 0, got {walk_latency}")
        self.entries = entries
        self.page_size = page_size
        self.walk_latency = walk_latency
        self.stats = TlbStats()
        self._map: "OrderedDict[Tuple[int, int], bool]" = OrderedDict()

    def access(self, pid: int, vaddr: int) -> int:
        """Translate; returns the extra latency (0 on hit, walk on miss)."""
        key = (pid, vaddr // self.page_size)
        if key in self._map:
            self._map.move_to_end(key)
            self.stats.hits += 1
            return 0
        self.stats.misses += 1
        self._map[key] = True
        if len(self._map) > self.entries:
            self._map.popitem(last=False)
        return self.walk_latency

    def contains(self, pid: int, vaddr: int) -> bool:
        """Presence check with no side effects."""
        return (pid, vaddr // self.page_size) in self._map

    def reset(self) -> None:
        """Drop all translations and zero the stats (warm-machine reset)."""
        self._map.clear()
        self.stats.reset()

    def flush_all(self) -> None:
        """Drop every translation (e.g. on a simulated context switch)."""
        self._map.clear()

    def flush_pid(self, pid: int) -> None:
        """Drop all translations belonging to ``pid``."""
        stale = [key for key in self._map if key[0] == pid]
        for key in stale:
            del self._map[key]

    def occupancy(self) -> int:
        """Number of valid translations."""
        return len(self._map)
