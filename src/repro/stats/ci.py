"""Confidence intervals.

The paper reports "averages over 100 runs for each attack, with a
95%-confidence interval calculated using the Student's t-test".  The
t quantile comes from :mod:`repro.stats._special`, which loads its
library at the first interval, not at import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.errors import StatsError
from repro.stats import _special


@dataclass(frozen=True)
class ConfidenceInterval:
    """A symmetric confidence interval around a sample mean."""

    mean: float
    lower: float
    upper: float
    level: float

    @property
    def half_width(self) -> float:
        """Half the interval's width."""
        return (self.upper - self.lower) / 2.0

    def contains(self, value: float) -> bool:
        """True when ``value`` lies inside the interval."""
        return self.lower <= value <= self.upper

    def overlaps(self, other: "ConfidenceInterval") -> bool:
        """True when the two intervals intersect."""
        return self.lower <= other.upper and other.lower <= self.upper


def _t_quantile(probability: float, dof: int) -> float:
    """Inverse Student-t CDF via stdtrit."""
    return float(_special.stdtrit(dof, probability))


def mean_confidence_interval(
    samples: Sequence[float], level: float = 0.95
) -> ConfidenceInterval:
    """Student-t confidence interval for the mean of ``samples``.

    Raises:
        StatsError: For fewer than 2 samples or a silly level.
    """
    if len(samples) < 2:
        raise StatsError("confidence interval needs at least 2 samples")
    if not 0.0 < level < 1.0:
        raise StatsError(f"confidence level must be in (0, 1), got {level}")
    n = len(samples)
    mean = sum(samples) / n
    variance = sum((x - mean) ** 2 for x in samples) / (n - 1)
    if variance == 0.0:
        return ConfidenceInterval(mean=mean, lower=mean, upper=mean, level=level)
    margin = _t_quantile(0.5 + level / 2.0, n - 1) * math.sqrt(variance / n)
    return ConfidenceInterval(
        mean=mean, lower=mean - margin, upper=mean + margin, level=level
    )
