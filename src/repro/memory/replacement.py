"""Cache replacement policies.

Policies are stateful per cache set.  The cache calls
:meth:`ReplacementPolicy.on_access` on every hit or fill and
:meth:`ReplacementPolicy.victim` when a fill needs to evict.
"""

from __future__ import annotations

import abc
import random
from typing import Dict, List, Optional, Sequence

from repro.errors import MemorySystemError


class ReplacementPolicy(abc.ABC):
    """Replacement state for one cache set with ``ways`` ways."""

    def __init__(self, ways: int) -> None:
        if ways < 1:
            raise MemorySystemError(f"ways must be >= 1, got {ways}")
        self.ways = ways

    @abc.abstractmethod
    def on_access(self, way: int) -> None:
        """Record a hit or fill on ``way``."""

    @abc.abstractmethod
    def victim(self, valid: Sequence[bool]) -> int:
        """Choose the way to evict.

        Args:
            valid: Per-way validity; invalid ways are always preferred.
        """

    def on_invalidate(self, way: int) -> None:
        """Record that ``way`` was invalidated (optional hook)."""

    def _first_invalid(self, valid: Sequence[bool]) -> Optional[int]:
        for way, is_valid in enumerate(valid):
            if not is_valid:
                return way
        return None


class LruPolicy(ReplacementPolicy):
    """Least-recently-used replacement."""

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        # Most recent at the end.
        self._order: List[int] = list(range(ways))

    def on_access(self, way: int) -> None:
        """See :meth:`ReplacementPolicy.on_access`."""
        self._order.remove(way)
        self._order.append(way)

    def victim(self, valid: Sequence[bool]) -> int:
        """See :meth:`ReplacementPolicy.victim`."""
        invalid = self._first_invalid(valid)
        if invalid is not None:
            return invalid
        return self._order[0]


class FifoPolicy(ReplacementPolicy):
    """First-in-first-out replacement (insertion order, hits ignored)."""

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        self._inserted: List[int] = list(range(ways))
        self._filled: Dict[int, bool] = {w: False for w in range(ways)}

    def on_access(self, way: int) -> None:
        """See :meth:`ReplacementPolicy.on_access`."""
        if not self._filled[way]:
            self._filled[way] = True
            self._inserted.remove(way)
            self._inserted.append(way)

    def on_invalidate(self, way: int) -> None:
        """See :meth:`ReplacementPolicy.on_invalidate`."""
        self._filled[way] = False

    def victim(self, valid: Sequence[bool]) -> int:
        """See :meth:`ReplacementPolicy.victim`."""
        invalid = self._first_invalid(valid)
        if invalid is not None:
            return invalid
        way = self._inserted[0]
        self._filled[way] = False
        return way


class RandomPolicy(ReplacementPolicy):
    """Uniform random replacement with a seeded generator."""

    def __init__(self, ways: int, rng: Optional[random.Random] = None) -> None:
        super().__init__(ways)
        self._rng = rng or random.Random(0)

    def on_access(self, way: int) -> None:
        """See :meth:`ReplacementPolicy.on_access`."""
        pass

    def victim(self, valid: Sequence[bool]) -> int:
        """See :meth:`ReplacementPolicy.victim`."""
        invalid = self._first_invalid(valid)
        if invalid is not None:
            return invalid
        return self._rng.randrange(self.ways)


_POLICIES = {
    "lru": LruPolicy,
    "fifo": FifoPolicy,
    "random": RandomPolicy,
}


def make_policy(
    name: str, ways: int, rng: Optional[random.Random] = None
) -> ReplacementPolicy:
    """Construct a replacement policy by name (``lru``/``fifo``/``random``).

    Raises:
        MemorySystemError: For unknown policy names.
    """
    try:
        factory = _POLICIES[name.lower()]
    except KeyError:
        raise MemorySystemError(
            f"unknown replacement policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
    if factory is RandomPolicy:
        return RandomPolicy(ways, rng=rng)
    return factory(ways)
