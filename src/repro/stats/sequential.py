"""Group-sequential t-tests: spend trials only where the statistics need them.

The paper's verdict for every Table II/III attack cell is a fixed-N
Student's t-test — 100 runs per hypothesis, succeed iff p < 0.05
(Section IV-D).  Most cells are nowhere near the boundary: a working
attack separates its mapped/unmapped distributions so far that the
p-value is astronomically small after a fraction of the budget, and a
control cell (no predictor) hovers around p ≈ 0.5 forever.  A
group-sequential design makes that observable *without* giving up
error control: the experiment is examined at a few pre-registered
interim **looks** (e.g. after 20/40/60/80/100 trials) and stopped as
soon as the evidence crosses an alpha-spending boundary.

The boundary here is the classic Lan–DeMets O'Brien–Fleming-style
spending function

    a(t) = 2 * (1 - Phi(z_{alpha/2} / sqrt(t)))

which releases almost no alpha early (a(0.2) ≈ 1.2e-5 for alpha=0.05)
and the full alpha at t=1 — exactly the shape wanted for attack
verdicts: only overwhelming evidence stops a cell early, and a cell
that survives to the final look is judged by (almost) the fixed-N
criterion.  Interim looks are charged their *increment* of the
spending function, ``a(t_k) - a(t_{k-1})``; by the union bound the
total probability of any interim stop under the null is at most
``a(t_{K-1})``, independent of the correlation structure — no
multivariate-normal integration needed, and the guarantee is exact
rather than asymptotic.

The final look applies the paper's plain ``p < alpha`` criterion, so
a cell that never stops early returns **bit-for-bit the fixed-N
verdict** — the property the harness relies on for artifact
validation, and the reason a one-look design *is* the fixed-N t-test.
Worst-case type-I error is bounded by ``alpha + a(t_{K-1})`` (≈ 0.078
for the default five-look design); the empirical inflation is far
smaller because an interim boundary crossing under the null almost
always implies a final-look rejection too (the Monte-Carlo calibration
test in ``tests/test_sequential.py`` pins this down).

Everything here is pure deterministic arithmetic over p-values; the
simulator side (trial streaming, seed schedules) lives in
:mod:`repro.core.attack` and :mod:`repro.harness.runner`.  The normal
CDF and its inverse behind the spending function come from
:mod:`repro.stats._special`, which loads its library at the first
spending level, not at import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.errors import StatsError
from repro.stats import _special
from repro.stats.ttest import ALPHA, welch_t_test

#: Default interim-look schedule as fractions of the trial budget.
DEFAULT_LOOK_FRACTIONS: Tuple[float, ...] = (0.2, 0.4, 0.6, 0.8, 1.0)

#: A two-sample t-test needs at least this many trials per hypothesis.
MIN_LOOK_TRIALS = 2


def obrien_fleming_spending(t: float, alpha: float = ALPHA) -> float:
    """Cumulative alpha spent at information fraction ``t`` (O'Brien–Fleming).

    The Lan–DeMets spending-function approximation of the classic
    O'Brien–Fleming boundary: essentially no alpha is released early
    and the full ``alpha`` is available at ``t = 1``.
    """
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return alpha
    z = float(_special.ndtri(1.0 - alpha / 2.0))
    return float(2.0 * (1.0 - _special.ndtr(z / math.sqrt(t))))


def default_looks(
    n_max: int,
    fractions: Sequence[float] = DEFAULT_LOOK_FRACTIONS,
) -> Tuple[int, ...]:
    """Boundary-aligned cumulative trial counts for ``n_max`` trials.

    Rounds each fraction of ``n_max`` to a whole trial count, drops
    duplicates and counts too small for a t-test, and always ends at
    ``n_max`` so the fixed-N answer stays recoverable.
    """
    if n_max < MIN_LOOK_TRIALS:
        raise StatsError(
            f"n_max must be >= {MIN_LOOK_TRIALS}, got {n_max}"
        )
    counts: List[int] = []
    for fraction in fractions:
        if not 0.0 < fraction <= 1.0:
            raise StatsError(
                f"look fractions must lie in (0, 1], got {fraction}"
            )
        n = round(fraction * n_max)
        if n < MIN_LOOK_TRIALS or n > n_max:
            continue
        if not counts or n > counts[-1]:
            counts.append(n)
    if not counts or counts[-1] != n_max:
        counts.append(n_max)
    return tuple(counts)


@dataclass(frozen=True)
class SequentialDesign:
    """A pre-registered group-sequential design over one experiment.

    Attributes:
        looks: Strictly increasing cumulative trial counts (per
            hypothesis); the last entry is the fixed-N cap ``n_max``.
        alpha: Overall significance level (the paper's 0.05); the
            final look judges by the plain ``p < alpha`` criterion.
    """

    looks: Tuple[int, ...]
    alpha: float = ALPHA

    def __post_init__(self) -> None:
        if not self.looks:
            raise StatsError("a sequential design needs at least one look")
        if any(n < MIN_LOOK_TRIALS for n in self.looks):
            raise StatsError(
                f"every look needs >= {MIN_LOOK_TRIALS} trials per "
                f"hypothesis, got {self.looks}"
            )
        if any(b <= a for a, b in zip(self.looks, self.looks[1:])):
            raise StatsError(
                f"looks must be strictly increasing, got {self.looks}"
            )
        if not 0.0 < self.alpha < 1.0:
            raise StatsError(f"alpha must lie in (0, 1), got {self.alpha}")

    # ------------------------------------------------------------------
    @property
    def n_max(self) -> int:
        """The fixed-N trial cap (the last look)."""
        return self.looks[-1]

    @property
    def num_looks(self) -> int:
        return len(self.looks)

    def information_fraction(self, look: int) -> float:
        """``t_k``: fraction of the trial budget used at look ``look``."""
        return self.looks[look] / self.n_max

    def cumulative_spend(self, look: int) -> float:
        """``a(t_k)``: alpha spent through look ``look`` (0-based)."""
        return obrien_fleming_spending(
            self.information_fraction(look), self.alpha
        )

    def level_at(self, look: int) -> float:
        """Nominal p-value threshold applied at look ``look`` (0-based).

        Interim looks are charged their spending-function increment
        ``a(t_k) - a(t_{k-1})`` (union-bound exact).  The final look
        applies the plain fixed-N level ``alpha``.
        """
        if not 0 <= look < self.num_looks:
            raise StatsError(
                f"look index {look} out of range for {self.num_looks} looks"
            )
        if look == self.num_looks - 1:
            return self.alpha
        previous = self.cumulative_spend(look - 1) if look else 0.0
        return max(self.cumulative_spend(look) - previous, 0.0)

    def next_demand(self, trials_done: int) -> int:
        """Trials per hypothesis the next look still needs (0 = done).

        The demand-driven admission contract for lane schedulers: a
        backend that dispatches exactly this many trials per
        hypothesis never simulates past the next decision point, so
        an early stop wastes nothing.  ``trials_done`` between looks
        (a resumed cell) is pulled forward to the next boundary.
        """
        for n in self.looks:
            if n > trials_done:
                return n - trials_done
        return 0

    def interim_spend(self) -> float:
        """Total alpha available to interim (non-final) looks."""
        if self.num_looks == 1:
            return 0.0
        return self.cumulative_spend(self.num_looks - 2)

    def to_payload(self) -> Dict[str, object]:
        """JSON-serialisable description (journaled with each cell)."""
        return {
            "looks": list(self.looks),
            "alpha": self.alpha,
            "spending": "obrien-fleming",
            "final_level": "fixed-n",
            "levels": [self.level_at(k) for k in range(self.num_looks)],
        }


@dataclass(frozen=True)
class LookDecision:
    """The boundary decision taken at one interim or final look."""

    look: int  #: 1-based look number.
    n: int  #: Cumulative trials per hypothesis at this look.
    pvalue: float
    level: float  #: Nominal threshold applied at this look.
    decision: str  #: ``"reject"`` | ``"continue"`` | ``"accept"``.

    def to_payload(self) -> Dict[str, object]:
        return {
            "look": self.look,
            "n": self.n,
            "pvalue": self.pvalue,
            "level": self.level,
            "decision": self.decision,
        }


class GroupSequentialTest:
    """Stateful boundary walker: feed one p-value per scheduled look.

    The caller owns sample collection (and the t-test); this class
    owns the stopping decision, so the statistics stay decoupled from
    the simulator.  Decisions:

    * ``"reject"`` — the p-value crossed this look's boundary; the
      distributions are distinguishable and the experiment stops.
    * ``"continue"`` — keep sampling until the next look.
    * ``"accept"`` — final look reached without crossing any boundary;
      the attack is judged not effective (at the design's level).
    """

    def __init__(self, design: SequentialDesign) -> None:
        self.design = design
        self.looks: List[LookDecision] = []

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """True once a terminal (reject/accept) decision was taken."""
        return bool(self.looks) and self.looks[-1].decision != "continue"

    @property
    def effective(self) -> bool:
        """True when the test ended in a rejection (attack succeeds)."""
        return bool(self.looks) and self.looks[-1].decision == "reject"

    @property
    def stopped_early(self) -> bool:
        """True when a rejection happened before the final look."""
        return (
            self.effective
            and self.looks[-1].n < self.design.n_max
        )

    @property
    def effective_n(self) -> int:
        """Trials per hypothesis actually consumed so far."""
        return self.looks[-1].n if self.looks else 0

    # ------------------------------------------------------------------
    def decide(self, pvalue: float) -> LookDecision:
        """Record the next scheduled look's p-value; return the decision.

        Raises:
            StatsError: When called after a terminal decision or past
                the last scheduled look.
        """
        if self.done:
            raise StatsError("sequential test already reached a decision")
        index = len(self.looks)
        if index >= self.design.num_looks:
            raise StatsError("no looks left in the sequential design")
        level = self.design.level_at(index)
        final = index == self.design.num_looks - 1
        if pvalue < level:
            decision = "reject"
        elif final:
            decision = "accept"
        else:
            decision = "continue"
        look = LookDecision(
            look=index + 1,
            n=self.design.looks[index],
            pvalue=pvalue,
            level=level,
            decision=decision,
        )
        self.looks.append(look)
        return look

    def to_payload(self) -> Dict[str, object]:
        """JSON-serialisable trajectory of the looks taken."""
        return {
            "looks": [look.to_payload() for look in self.looks],
            "effective": self.effective,
            "stopped_early": self.stopped_early,
            "effective_n": self.effective_n,
        }


def run_group_sequential(
    design: SequentialDesign,
    sample_a: Sequence[float],
    sample_b: Sequence[float],
) -> GroupSequentialTest:
    """Walk a full design over two pre-collected sample vectors.

    Convenience for calibration and tests: the prefix of each sample
    vector at every scheduled look is fed through Welch's t-test and
    the boundary.  Both vectors must cover ``design.n_max`` samples.
    """
    if len(sample_a) < design.n_max or len(sample_b) < design.n_max:
        raise StatsError(
            f"samples must cover n_max={design.n_max} "
            f"(got {len(sample_a)} and {len(sample_b)})"
        )
    test = GroupSequentialTest(design)
    for n in design.looks:
        result = welch_t_test(sample_a[:n], sample_b[:n])
        if test.decide(result.pvalue).decision != "continue":
            break
    return test
