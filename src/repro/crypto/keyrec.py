"""Key reconstruction from leaked exponent bits.

The paper notes a 95.7 % per-bit success rate "is enough to
reconstruct the full key based on prior work [6]".  This module
provides the standard practical mechanisms: majority voting over
repeated leak runs, and identification of the (few) low-confidence
positions a brute-force pass would need to cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import CryptoError


@dataclass(frozen=True)
class BitEstimate:
    """Aggregated evidence for one exponent bit position.

    Attributes:
        position: Bit index (MSB first).
        ones: Number of runs that decoded a 1.
        total: Number of runs observed.
    """

    position: int
    ones: int
    total: int

    @property
    def value(self) -> int:
        """Majority-vote bit (ties decode to 1)."""
        return int(self.ones * 2 >= self.total)

    @property
    def confidence(self) -> float:
        """Majority fraction in [0.5, 1.0]."""
        majority = max(self.ones, self.total - self.ones)
        return majority / self.total


def majority_vote(runs: Sequence[Sequence[int]]) -> List[BitEstimate]:
    """Combine several decoded bit strings into per-position estimates.

    Raises:
        CryptoError: If runs are empty or lengths differ.
    """
    if not runs:
        raise CryptoError("majority vote requires at least one run")
    length = len(runs[0])
    if any(len(run) != length for run in runs):
        raise CryptoError("all runs must decode the same number of bits")
    estimates = []
    for position in range(length):
        ones = sum(run[position] for run in runs)
        estimates.append(
            BitEstimate(position=position, ones=ones, total=len(runs))
        )
    return estimates


def reconstruct_exponent(estimates: Sequence[BitEstimate]) -> int:
    """The exponent value implied by the majority-vote bits."""
    value = 0
    for estimate in estimates:
        value = (value << 1) | estimate.value
    return value


def uncertain_positions(
    estimates: Sequence[BitEstimate], threshold: float = 0.75
) -> List[int]:
    """Positions whose confidence falls below ``threshold``.

    These are the candidates a brute-force completion (the "prior
    work [6]" step) would enumerate.
    """
    if not 0.5 <= threshold <= 1.0:
        raise CryptoError(f"threshold must be in [0.5, 1], got {threshold}")
    return [
        estimate.position
        for estimate in estimates
        if estimate.confidence < threshold
    ]


def brute_force_budget(
    estimates: Sequence[BitEstimate], threshold: float = 0.75
) -> int:
    """Number of candidate exponents after fixing confident bits (2^k)."""
    return 2 ** len(uncertain_positions(estimates, threshold=threshold))
