"""Statistics used by the paper's evaluation methodology."""

from repro.stats.bandwidth import (
    cycles_to_seconds,
    success_rate,
    transmission_rate_bps,
    transmission_rate_kbps,
)
from repro.stats.ci import ConfidenceInterval, mean_confidence_interval
from repro.stats.distributions import (
    TimingDistribution,
    frequency_histogram,
    histogram,
)
from repro.stats.sequential import (
    DEFAULT_LOOK_FRACTIONS,
    GroupSequentialTest,
    LookDecision,
    SequentialDesign,
    default_looks,
    obrien_fleming_spending,
    run_group_sequential,
)
from repro.stats.summary import DistributionComparison
from repro.stats.ttest import ALPHA, TTestResult, student_t_test, welch_t_test

__all__ = [
    "ALPHA",
    "DEFAULT_LOOK_FRACTIONS",
    "ConfidenceInterval",
    "DistributionComparison",
    "GroupSequentialTest",
    "LookDecision",
    "SequentialDesign",
    "TTestResult",
    "TimingDistribution",
    "default_looks",
    "obrien_fleming_spending",
    "run_group_sequential",
    "cycles_to_seconds",
    "frequency_histogram",
    "histogram",
    "mean_confidence_interval",
    "student_t_test",
    "success_rate",
    "transmission_rate_bps",
    "transmission_rate_kbps",
    "welch_t_test",
]
