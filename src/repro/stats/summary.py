"""Comparison summaries pairing distributions with test results."""

from __future__ import annotations

from dataclasses import dataclass

from repro.stats.ci import ConfidenceInterval, mean_confidence_interval
from repro.stats.distributions import TimingDistribution
from repro.stats.ttest import ALPHA, TTestResult, welch_t_test


@dataclass
class DistributionComparison:
    """A mapped-vs-unmapped comparison, the unit of the paper's evaluation.

    Attributes:
        mapped: Timings for the "mapped" hypothesis (e.g. secret = 1,
            indices collide).
        unmapped: Timings for the "unmapped" hypothesis.
        test: The two-sample t-test over the two distributions.
    """

    mapped: TimingDistribution
    unmapped: TimingDistribution
    test: TTestResult

    @classmethod
    def compare(
        cls,
        mapped: TimingDistribution,
        unmapped: TimingDistribution,
    ) -> "DistributionComparison":
        """Run the t-test and build the summary."""
        return cls(
            mapped=mapped,
            unmapped=unmapped,
            test=welch_t_test(mapped.samples, unmapped.samples),
        )

    @property
    def pvalue(self) -> float:
        """The comparison's two-sided p-value."""
        return self.test.pvalue

    @property
    def attack_succeeds(self) -> bool:
        """The paper's criterion: distributions differ at p < 0.05."""
        return self.test.pvalue < ALPHA

    def mapped_ci(self, level: float = 0.95) -> ConfidenceInterval:
        """Confidence interval of the mapped distribution's mean."""
        return mean_confidence_interval(self.mapped.samples, level=level)

    def unmapped_ci(self, level: float = 0.95) -> ConfidenceInterval:
        """Confidence interval of the unmapped distribution's mean."""
        return mean_confidence_interval(self.unmapped.samples, level=level)

    def describe(self) -> str:
        """One-line human-readable summary."""
        verdict = "EFFECTIVE" if self.attack_succeeds else "not effective"
        return (
            f"mapped mean={self.mapped.mean:.1f} "
            f"unmapped mean={self.unmapped.mean:.1f} "
            f"pvalue={self.pvalue:.4f} -> {verdict}"
        )
