"""The Value Prediction System table of Figure 1.

Each entry tracks ``index | confidence | usefulness | value | VHist``
exactly as drawn in the paper.  When the table is full, "the entry
with the smallest usefulness value will be evicted".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from repro.errors import PredictorError

#: Default saturation ceiling for confidence counters.
DEFAULT_MAX_CONFIDENCE = 15

#: Default saturation ceiling for usefulness counters.
DEFAULT_MAX_USEFULNESS = 63

#: Default length of the per-entry value history.
DEFAULT_VHIST_LENGTH = 4


@dataclass
class VptEntry:
    """One Value Prediction Table entry.

    Attributes:
        index: The index value that owns this entry (acts as the tag).
        value: The last observed (and thus predicted) value.
        confidence: Saturating counter of consecutive value matches;
            a fresh entry starts at 1 (the value has been seen once),
            and a mismatch resets it to 0 while installing the new
            value — the state Figure 3's diagrams show after the
            1-access "modify" step.
        usefulness: Saturating counter used for eviction; increased
            when the entry's value re-occurs, decreased on mismatch.
        vhist: The last few observed values (most recent last).
    """

    index: int
    value: int
    confidence: int = 1
    usefulness: int = 1
    vhist: Deque[int] = field(
        default_factory=lambda: deque(maxlen=DEFAULT_VHIST_LENGTH)
    )

    def observe(
        self,
        actual_value: int,
        max_confidence: int = DEFAULT_MAX_CONFIDENCE,
        max_usefulness: int = DEFAULT_MAX_USEFULNESS,
    ) -> bool:
        """Record ``actual_value``; True if it matched the stored value.

        On a match, confidence and usefulness increase (saturating).
        On a mismatch, the new value is installed, confidence resets to
        0 and usefulness decays by 1.
        """
        self.vhist.append(actual_value)
        if actual_value == self.value:
            self.confidence = min(self.confidence + 1, max_confidence)
            self.usefulness = min(self.usefulness + 1, max_usefulness)
            return True
        self.value = actual_value
        self.confidence = 0
        self.usefulness = max(self.usefulness - 1, 0)
        return False

    def snapshot(self) -> Tuple[int, int, int, int]:
        """(index, confidence, usefulness, value) — for tests/diagrams."""
        return (self.index, self.confidence, self.usefulness, self.value)


class VpTable:
    """A capacity-bounded table of :class:`VptEntry` records.

    Eviction follows the paper: "if there are not enough entries, the
    entry with the smallest usefulness value will be evicted" (ties
    broken by least-recent insertion for determinism).
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise PredictorError(f"table capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: Dict[int, VptEntry] = {}
        self._insertion_order: Dict[int, int] = {}
        self._insert_counter = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, index: int) -> bool:
        return index in self._entries

    def __iter__(self) -> Iterator[VptEntry]:
        return iter(self._entries.values())

    def get(self, index: int) -> Optional[VptEntry]:
        """The entry owned by ``index``, or ``None``."""
        return self._entries.get(index)

    def insert(self, index: int, value: int, vhist_length: int = DEFAULT_VHIST_LENGTH
               ) -> VptEntry:
        """Allocate an entry for ``index``, evicting if necessary.

        Raises:
            PredictorError: If ``index`` already has an entry.
        """
        if index in self._entries:
            raise PredictorError(f"entry for index {index:#x} already exists")
        if len(self._entries) >= self.capacity:
            self._evict_least_useful()
        entry = VptEntry(
            index=index,
            value=value,
            vhist=deque([value], maxlen=vhist_length),
        )
        self._entries[index] = entry
        self._insertion_order[index] = self._insert_counter
        self._insert_counter += 1
        return entry

    def remove(self, index: int) -> bool:
        """Drop the entry for ``index``; True if one existed."""
        if index in self._entries:
            del self._entries[index]
            del self._insertion_order[index]
            return True
        return False

    def clear(self) -> None:
        """Drop every entry (eviction counters are preserved)."""
        self._entries.clear()
        self._insertion_order.clear()

    def _evict_least_useful(self) -> None:
        victim_index = min(
            self._entries,
            key=lambda index: (
                self._entries[index].usefulness,
                self._insertion_order[index],
            ),
        )
        del self._entries[victim_index]
        del self._insertion_order[victim_index]
        self.evictions += 1

    def snapshot(self) -> List[Tuple[int, int, int, int]]:
        """Sorted (index, confidence, usefulness, value) tuples."""
        return sorted(entry.snapshot() for entry in self._entries.values())
