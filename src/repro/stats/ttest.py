"""Two-sample t-tests.

The paper judges every attack by whether the receiver's "mapped" and
"unmapped" timing distributions are statistically distinguishable:
"If the pvalue is smaller than 0.05, timing distributions are
differentiable and the attack succeeds" (Section IV-D), using
Student's t-test [Gosset 1908] with averages over 100 runs.

Both the classic pooled-variance Student test and the Welch
(unequal-variance) variant are provided.  Statistics are computed
here; only the t-distribution CDF comes from :mod:`repro.stats._special`,
which loads its library at the first p-value, not at import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.errors import StatsError
from repro.stats import _special

#: The paper's significance threshold.
ALPHA = 0.05


@dataclass(frozen=True)
class TTestResult:
    """Outcome of a two-sample t-test.

    Attributes:
        statistic: The t statistic.
        pvalue: Two-sided p-value.
        dof: Degrees of freedom used.
        mean_a: Mean of the first sample.
        mean_b: Mean of the second sample.
    """

    statistic: float
    pvalue: float
    dof: float
    mean_a: float
    mean_b: float

    @property
    def distinguishable(self) -> bool:
        """True when the distributions differ at the paper's 0.05 level."""
        return self.pvalue < ALPHA


def _mean_var(samples: Sequence[float]) -> tuple:
    """Mean and (n-1)-denominator sample variance.

    The sample variance is undefined below two observations; silently
    returning 0.0 there used to let a 0/0 t statistic through when a
    caller bypassed :func:`_validate`, so this is enforced here too.
    """
    n = len(samples)
    if n < 2:
        raise StatsError(
            f"sample variance needs at least 2 observations, got {n}"
        )
    mean = sum(samples) / n
    variance = sum((x - mean) ** 2 for x in samples) / (n - 1)
    return mean, variance, n


def _two_sided_p(statistic: float, dof: float) -> float:
    """Two-sided p-value from the t CDF (via the regularised beta)."""
    if dof <= 0:
        return 1.0
    if math.isinf(statistic):
        return 0.0
    # stdtr is the Student t CDF.
    return 2.0 * (1.0 - _special.stdtr(dof, abs(statistic)))


def _validate(sample_a: Sequence[float], sample_b: Sequence[float]) -> None:
    if len(sample_a) < 2 or len(sample_b) < 2:
        raise StatsError(
            "each sample needs at least 2 observations "
            f"(got {len(sample_a)} and {len(sample_b)})"
        )


def student_t_test(
    sample_a: Sequence[float], sample_b: Sequence[float]
) -> TTestResult:
    """Pooled-variance two-sample Student's t-test (two-sided).

    Degenerate zero-variance inputs (both samples constant) get a
    defined result instead of a 0/0: identical means are maximally
    indistinguishable (statistic 0.0, p-value 1.0) and different means
    maximally distinguishable (signed infinite statistic, p-value 0.0).
    """
    _validate(sample_a, sample_b)
    mean_a, var_a, n_a = _mean_var(sample_a)
    mean_b, var_b, n_b = _mean_var(sample_b)
    dof = n_a + n_b - 2
    pooled = ((n_a - 1) * var_a + (n_b - 1) * var_b) / dof
    if pooled == 0.0:
        if mean_a == mean_b:
            statistic, pvalue = 0.0, 1.0
        else:
            statistic, pvalue = math.copysign(math.inf, mean_a - mean_b), 0.0
    else:
        statistic = (mean_a - mean_b) / math.sqrt(pooled * (1 / n_a + 1 / n_b))
        pvalue = _two_sided_p(statistic, dof)
    return TTestResult(
        statistic=statistic, pvalue=pvalue, dof=dof, mean_a=mean_a, mean_b=mean_b
    )


def welch_t_test(
    sample_a: Sequence[float], sample_b: Sequence[float]
) -> TTestResult:
    """Welch's unequal-variance two-sample t-test (two-sided).

    Zero-variance inputs degenerate the same way as
    :func:`student_t_test`: equal means give (0.0, p=1.0), different
    means give a signed infinite statistic with p=0.0.
    """
    _validate(sample_a, sample_b)
    mean_a, var_a, n_a = _mean_var(sample_a)
    mean_b, var_b, n_b = _mean_var(sample_b)
    se_a = var_a / n_a
    se_b = var_b / n_b
    if se_a + se_b == 0.0:
        if mean_a == mean_b:
            statistic = 0.0
        else:
            statistic = math.copysign(math.inf, mean_a - mean_b)
        return TTestResult(
            statistic=statistic,
            pvalue=1.0 if mean_a == mean_b else 0.0,
            dof=float(n_a + n_b - 2),
            mean_a=mean_a,
            mean_b=mean_b,
        )
    statistic = (mean_a - mean_b) / math.sqrt(se_a + se_b)
    dof = (se_a + se_b) ** 2 / (
        se_a ** 2 / (n_a - 1) + se_b ** 2 / (n_b - 1)
    )
    return TTestResult(
        statistic=statistic,
        pvalue=_two_sided_p(statistic, dof),
        dof=dof,
        mean_a=mean_a,
        mean_b=mean_b,
    )
