"""BeBoP-style block-based value predictor.

A simplified form of Perais & Seznec's "BeBoP" infrastructure (HPCA
2015, the paper's reference [9], credited with an 11.2 % speedup):
predictor storage is organised by *fetch block* rather than by
individual PC.  A set-associative table is indexed by the block
address; each block entry carries a partial tag and per-offset
sub-entries (value, confidence, usefulness) for the loads inside the
block.

Security-wise this indexing inherits both attack surfaces the paper's
threat model names: block entries use *partial* tags (so distant
blocks can alias) and loads collide whenever block index, partial tag
and in-block offset all match — which an attacker can arrange without
matching the victim's full PC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import PredictorError
from repro.vp.base import AccessKey, Prediction, ValuePredictor
from repro.vp.table import DEFAULT_MAX_CONFIDENCE, DEFAULT_MAX_USEFULNESS

_VALUE_MASK = (1 << 64) - 1


def _partial_tag(block: int, tag_bits: int) -> int:
    """A folded partial tag of the block address."""
    digest = (block * 0x9E3779B97F4A7C15) & _VALUE_MASK
    digest ^= digest >> 29
    return digest & ((1 << tag_bits) - 1)


@dataclass
class _SubEntry:
    """Per-offset predictor state inside a block entry."""

    value: int
    confidence: int = 1
    usefulness: int = 1

    def observe(self, actual_value: int, max_confidence: int) -> None:
        """Record the actual value: match strengthens, mismatch resets."""
        if actual_value == self.value:
            self.confidence = min(self.confidence + 1, max_confidence)
            self.usefulness = min(
                self.usefulness + 1, DEFAULT_MAX_USEFULNESS
            )
        else:
            self.value = actual_value
            self.confidence = 0
            self.usefulness = max(self.usefulness - 1, 0)


@dataclass
class _BlockEntry:
    """One block's predictor state: partial tag + per-offset sub-entries."""

    tag: int
    sub_entries: Dict[int, _SubEntry] = field(default_factory=dict)
    last_used: int = 0

    def total_usefulness(self) -> int:
        """Total usefulness."""
        return sum(entry.usefulness for entry in self.sub_entries.values())


class BebopPredictor(ValuePredictor):
    """Block-based last-value prediction with partial tags.

    Args:
        confidence_threshold: Matches required before predicting.
        sets: Number of table sets (block index = block mod sets).
        ways: Block entries per set (least-useful block evicted).
        block_shift: log2 of the fetch-block size in bytes (6 = 64 B).
        tag_bits: Partial-tag width; smaller tags alias more blocks.
        offsets_per_block: Maximum tracked loads per block.
    """

    name = "bebop"

    def __init__(
        self,
        confidence_threshold: int = 4,
        sets: int = 64,
        ways: int = 4,
        block_shift: int = 6,
        tag_bits: int = 10,
        offsets_per_block: int = 8,
        max_confidence: int = DEFAULT_MAX_CONFIDENCE,
    ) -> None:
        super().__init__()
        if confidence_threshold < 1:
            raise PredictorError("confidence threshold must be >= 1")
        if sets < 1 or ways < 1:
            raise PredictorError("sets and ways must be >= 1")
        if not 1 <= tag_bits <= 32:
            raise PredictorError("tag_bits must be in [1, 32]")
        if offsets_per_block < 1:
            raise PredictorError("offsets_per_block must be >= 1")
        self.confidence_threshold = confidence_threshold
        self.sets = sets
        self.ways = ways
        self.block_shift = block_shift
        self.tag_bits = tag_bits
        self.offsets_per_block = offsets_per_block
        self.max_confidence = max_confidence
        # set index -> list of block entries (at most `ways`).
        self._table: Dict[int, list] = {}
        self._tick = 0

    # ------------------------------------------------------------------
    def _locate(self, key: AccessKey) -> Tuple[int, int, int]:
        """(set index, partial tag, in-block offset) for a load."""
        block = key.pc >> self.block_shift
        offset = (key.pc >> 2) & ((1 << (self.block_shift - 2)) - 1)
        return block % self.sets, _partial_tag(block, self.tag_bits), offset

    def _find_block(self, set_index: int, tag: int) -> Optional[_BlockEntry]:
        for entry in self._table.get(set_index, []):
            if entry.tag == tag:
                self._tick += 1
                entry.last_used = self._tick
                return entry
        return None

    def predict(self, key: AccessKey) -> Optional[Prediction]:
        """See :meth:`repro.vp.base.ValuePredictor.predict`."""
        set_index, tag, offset = self._locate(key)
        block = self._find_block(set_index, tag)
        prediction = None
        if block is not None:
            sub = block.sub_entries.get(offset)
            if sub is not None and sub.confidence >= self.confidence_threshold:
                prediction = Prediction(
                    value=sub.value, confidence=sub.confidence,
                    source=self.name,
                )
        return self._record_lookup(prediction)

    def train(
        self,
        key: AccessKey,
        actual_value: int,
        prediction: Optional[Prediction] = None,
    ) -> None:
        """See :meth:`repro.vp.base.ValuePredictor.train`."""
        self._record_train(actual_value, prediction)
        set_index, tag, offset = self._locate(key)
        block = self._find_block(set_index, tag)
        if block is None:
            block = self._allocate_block(set_index, tag)
        sub = block.sub_entries.get(offset)
        if sub is None:
            if len(block.sub_entries) >= self.offsets_per_block:
                victim = min(
                    block.sub_entries,
                    key=lambda off: block.sub_entries[off].usefulness,
                )
                del block.sub_entries[victim]
                self.stats.evictions += 1
            block.sub_entries[offset] = _SubEntry(value=actual_value)
            return
        sub.observe(actual_value, self.max_confidence)

    def _allocate_block(self, set_index: int, tag: int) -> _BlockEntry:
        entries = self._table.setdefault(set_index, [])
        if len(entries) >= self.ways:
            victim = min(
                entries,
                key=lambda entry: (entry.total_usefulness(), entry.last_used),
            )
            entries.remove(victim)
            self.stats.evictions += 1
        self._tick += 1
        entry = _BlockEntry(tag=tag, last_used=self._tick)
        entries.append(entry)
        return entry

    def reset(self) -> None:
        """See :meth:`repro.vp.base.ValuePredictor.reset`."""
        self._table.clear()
        self._tick = 0

    # ------------------------------------------------------------------
    def confidence_of(self, key: AccessKey) -> int:
        """Confidence for ``key`` (0 when untracked)."""
        set_index, tag, offset = self._locate(key)
        block = self._find_block(set_index, tag)
        if block is None:
            return 0
        sub = block.sub_entries.get(offset)
        return sub.confidence if sub is not None else 0
