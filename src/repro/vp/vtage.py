"""VTAGE value predictor (Perais & Seznec, HPCA 2014).

VTAGE couples a tagless last-value base component with several tagged
components indexed by the load PC hashed with increasingly long
slices of a global history register; the longest-history matching
component with sufficient confidence provides the prediction.

Deviation from the original: VTAGE uses the global *branch* history;
our programs are straight-line (control flow is resolved statically),
so the global history register here tracks hashes of recently
committed load values instead.  The structure, allocation and
confidence mechanics follow the original, which is what matters for
the paper's Section IV-D3 finding that the attacks work on VTAGE as
well as LVP (the attack loads are history-stable during train/trigger,
so they behave the same under either history definition).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import PredictorError
from repro.vp.base import AccessKey, Prediction, ValuePredictor
from repro.vp.indexing import PC_INDEX, IndexFunction
from repro.vp.table import VpTable

_VALUE_MASK = (1 << 64) - 1


def _mix(*values: int) -> int:
    """Deterministic hash combiner for component indices and tags."""
    digest = 0x9E3779B97F4A7C15
    for value in values:
        digest ^= value & _VALUE_MASK
        digest = (digest * 0xC2B2AE3D27D4EB4F) & _VALUE_MASK
        digest ^= digest >> 31
    return digest


@dataclass
class _TaggedEntry:
    """Entry of one tagged VTAGE component."""

    tag: int
    value: int
    confidence: int = 0
    usefulness: int = 0


class _TaggedComponent:
    """A direct-mapped tagged component with 2^log_size entries."""

    def __init__(self, log_size: int, history_length: int, tag_bits: int) -> None:
        self.size = 1 << log_size
        self.history_length = history_length
        self.tag_bits = tag_bits
        self.entries: Dict[int, _TaggedEntry] = {}

    def index_and_tag(self, pc_index: int, history: int) -> Tuple[int, int]:
        """Index and tag."""
        folded = history & ((1 << (4 * self.history_length)) - 1)
        digest = _mix(pc_index, folded, self.history_length)
        return digest % self.size, (digest >> 20) & ((1 << self.tag_bits) - 1)

    def lookup(self, pc_index: int, history: int) -> Optional[_TaggedEntry]:
        """Tag-checked lookup; None on a miss or tag mismatch."""
        slot, tag = self.index_and_tag(pc_index, history)
        entry = self.entries.get(slot)
        if entry is not None and entry.tag == tag:
            return entry
        return None

    def allocate(self, pc_index: int, history: int, value: int) -> bool:
        """Try to allocate; only replaces entries with zero usefulness."""
        slot, tag = self.index_and_tag(pc_index, history)
        entry = self.entries.get(slot)
        if entry is None or entry.usefulness == 0:
            self.entries[slot] = _TaggedEntry(tag=tag, value=value)
            return True
        entry.usefulness -= 1
        return False


class VtagePredictor(ValuePredictor):
    """The VTAGE predictor.

    Args:
        confidence_threshold: Confidence needed for any component
            (base or tagged) to provide a prediction.
        base_capacity: Entries in the tagless base (last-value) table.
        history_lengths: Geometric history lengths of the tagged
            components (shortest first).
        log_component_size: log2 of each tagged component's entry count.
        index_function: PC mapping for the base component and the
            component hash inputs.
    """

    name = "vtage"

    def __init__(
        self,
        confidence_threshold: int = 4,
        base_capacity: int = 256,
        history_lengths: Sequence[int] = (2, 4, 8, 16),
        log_component_size: int = 7,
        tag_bits: int = 12,
        max_confidence: int = 15,
        index_function: IndexFunction = PC_INDEX,
    ) -> None:
        super().__init__()
        if confidence_threshold < 1:
            raise PredictorError(
                f"confidence threshold must be >= 1, got {confidence_threshold}"
            )
        if not history_lengths or list(history_lengths) != sorted(history_lengths):
            raise PredictorError(
                "history_lengths must be a non-empty increasing sequence"
            )
        self.confidence_threshold = confidence_threshold
        self.max_confidence = max_confidence
        self.index_function = index_function
        self.base = VpTable(capacity=base_capacity)
        self.components: List[_TaggedComponent] = [
            _TaggedComponent(log_component_size, length, tag_bits)
            for length in history_lengths
        ]
        self._history = 0

    # ------------------------------------------------------------------
    def _provider(self, pc_index: int) -> Tuple[Optional[int], Optional[_TaggedEntry]]:
        """Longest-history matching tagged component, if any."""
        for component_number in reversed(range(len(self.components))):
            entry = self.components[component_number].lookup(pc_index, self._history)
            if entry is not None:
                return component_number, entry
        return None, None

    def predict(self, key: AccessKey) -> Optional[Prediction]:
        """See :meth:`repro.vp.base.ValuePredictor.predict`."""
        pc_index = self.index_function.index_of(key)
        component_number, entry = self._provider(pc_index)
        prediction: Optional[Prediction] = None
        if entry is not None and entry.confidence >= self.confidence_threshold:
            prediction = Prediction(
                value=entry.value,
                confidence=entry.confidence,
                source=f"{self.name}:t{component_number}",
            )
        else:
            base_entry = self.base.get(pc_index)
            if (
                base_entry is not None
                and base_entry.confidence >= self.confidence_threshold
            ):
                prediction = Prediction(
                    value=base_entry.value,
                    confidence=base_entry.confidence,
                    source=f"{self.name}:base",
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
        pc_index = self.index_function.index_of(key)

        # Update the tagged provider (or the matching entry) first.
        component_number, entry = self._provider(pc_index)
        mispredicted = prediction is not None and prediction.value != actual_value
        if entry is not None:
            if entry.value == actual_value:
                entry.confidence = min(entry.confidence + 1, self.max_confidence)
                entry.usefulness = min(entry.usefulness + 1, 3)
            else:
                entry.value = actual_value
                entry.confidence = 0
                entry.usefulness = max(entry.usefulness - 1, 0)

        # Base component behaves like LVP.
        base_entry = self.base.get(pc_index)
        if base_entry is None:
            self.base.insert(pc_index, actual_value)
            base_correct = False
        else:
            base_correct = base_entry.observe(
                actual_value, max_confidence=self.max_confidence
            )

        # On a misprediction (or an unconfident base), try to allocate
        # the load into a longer-history tagged component.
        if mispredicted or (entry is None and not base_correct):
            start = (component_number + 1) if component_number is not None else 0
            for number in range(start, len(self.components)):
                if self.components[number].allocate(
                    pc_index, self._history, actual_value
                ):
                    break

        # Advance the global history with a hash of the observed value.
        self._history = ((self._history << 4) | (_mix(actual_value) & 0xF)) & (
            (1 << 64) - 1
        )

    def reset(self) -> None:
        """See :meth:`repro.vp.base.ValuePredictor.reset`."""
        self.base.clear()
        for component in self.components:
            component.entries.clear()
        self._history = 0
