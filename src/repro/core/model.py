"""The systematic value-predictor attack model (Section V).

The paper enumerates 8 train actions x 9 modify actions x 8 trigger
actions = **576** three-step combinations and reduces them, by rules
whose description the paper omits for space, to **exactly 12 effective
attacks in 6 categories** (Table II).  This module reconstructs a
sound rule set that reproduces Table II exactly; each rule is stated,
implemented, and unit-tested.

Rules (applied in order; the first that fires decides):

1. **Secrecy** — at least one step must be a secret action; known-only
   combos carry no information.
2. **Dimension purity** — data and index accesses hit *disjoint*
   predictor entries, so a step off the trigger's dimension is
   vacuous: a mixed combo whose train (or modify) step shares the
   trigger's dimension reduces to the two-step combo with the
   off-dimension step elided; a mixed combo where *no* step shares
   the trigger's dimension probes untrained entries and is invalid.
   (The exhaustive hunt of :mod:`repro.analysis.enumerate` is what
   forced the elision sub-rules: a blanket rejection misses that
   e.g. ``(S^KD, S^KI, S^SD')`` is Train + Hit with a no-op stapled
   on, and gets flagged as a completeness counterexample.)
3. **Index-flavour aliasing** — combos using both I' and I'' reduce to
   their data-dimension counterpart: two secret-dependent accesses
   collide in the index space iff they are the *same access*, making
   the index question equivalent to the data question (cf. the paper's
   footnote 6 reduction).
4. **Flavour canonicalisation** — relabelling D''→D' (I''→I') in a
   combo whose first secret flavour is '' yields an identical attack;
   non-canonical combos reduce to their canonical form.
5. **Modify merge** — a modify step accessing the same object as the
   train step merely extends training; the combo reduces to
   ``(train, —, trigger)``.
6. **Trigger merge** — a modify step accessing the same object as the
   trigger step is an earlier occurrence of the trigger access; the
   combo reduces to ``(train, —, trigger)``.
7. **Degeneracy** — if all non-empty steps access one object, there is
   no hypothesis pair to distinguish.
8. **Data-dimension known-step redundancy** — in the data dimension
   every access hits the *same* predictor entry unconditionally, so a
   known reference step next to a secret step adds nothing the
   canonical two-step pattern (Train + Hit / Test + Hit) does not
   already provide; 3-step data combos mixing known and secret actions
   reduce to those.  In the *index* dimension the collision itself is
   the unknown, so known steps are load-bearing and Train + Test /
   Modify + Test survive.
9. **Distinguishability** — an abstract predictor-state evaluation
   must produce, for some access-count assignment, the outcome pair
   {correct, mispredict} or {correct, no prediction} across the two
   secret hypotheses.  Pairs that differ only as {no prediction,
   mispredict} fall in Figure 2's "no known examples" class and are
   excluded; equal outcomes are no attack at all.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.core.actions import (
    MODIFY_ACTIONS,
    NONE_ACTION,
    TRAIN_ACTIONS,
    TRIGGER_ACTIONS,
    Action,
    Dimension,
    Knowledge,
    SecretFlavour,
)
from repro.errors import ModelError


class AttackCategory(enum.Enum):
    """The six attack categories of Table II / Section V-B."""

    TRAIN_TEST = "Train + Test"
    TEST_HIT = "Test + Hit"
    TRAIN_HIT = "Train + Hit"
    SPILL_OVER = "Spill Over"
    FILL_UP = "Fill Up"
    MODIFY_TEST = "Modify + Test"


class TriggerOutcome(enum.Enum):
    """What the VPS does for one access, evaluated before its update.

    The model's evaluator yields the first three.  ``UNKNOWN`` is the
    static analysis's (:mod:`repro.analysis.vpstate`): a load whose
    predictor index it cannot resolve (data-address indexing with an
    unknown base register).
    """

    CORRECT = "correct"
    MISPREDICT = "mispredict"
    NO_PREDICTION = "no-prediction"
    UNKNOWN = "unknown"


class Verdict(enum.Enum):
    """Classification of one (train, modify, trigger) combination."""

    EFFECTIVE = "effective"
    REDUCIBLE = "reducible"
    INVALID = "invalid"


@dataclass(frozen=True)
class Combo:
    """One of the 576 (train, modify, trigger) action combinations."""

    train: Action
    modify: Action
    trigger: Action

    def __post_init__(self) -> None:
        if self.train.is_none or self.trigger.is_none:
            raise ModelError("train and trigger steps cannot be empty")

    @property
    def actions(self) -> Tuple[Action, ...]:
        """The non-empty actions, in step order."""
        if self.modify.is_none:
            return (self.train, self.trigger)
        return (self.train, self.modify, self.trigger)

    @property
    def symbol(self) -> str:
        """The paper's notation for this combination."""
        return f"({self.train.symbol}, {self.modify.symbol}, {self.trigger.symbol})"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.symbol


@dataclass(frozen=True)
class Classification:
    """Verdict for one combo, with category / reduction target / reason."""

    combo: Combo
    verdict: Verdict
    category: Optional[AttackCategory] = None
    reduces_to: Optional[str] = None
    reason: str = ""
    outcome_pairs: Tuple[Tuple[TriggerOutcome, TriggerOutcome], ...] = ()

    @property
    def is_effective(self) -> bool:
        """True when the verdict is EFFECTIVE."""
        return self.verdict is Verdict.EFFECTIVE


# ----------------------------------------------------------------------
# Object identity: which accesses touch "the same thing".
# ----------------------------------------------------------------------

def _object_of(action: Action) -> Tuple:
    """Identity of the object an action accesses.

    Known accesses of one dimension share a single object regardless
    of actor (cross-process known objects come from a shared library,
    per the paper's Section V-B discussion); secret objects are
    identified by their flavour.
    """
    if action.is_none:
        raise ModelError("the empty action accesses nothing")
    if action.knowledge is Knowledge.KNOWN:
        return ("known", action.dimension)
    return ("secret", action.dimension, action.flavour)


# ----------------------------------------------------------------------
# Abstract predictor-state evaluation (rule 9)
# ----------------------------------------------------------------------

#: Evaluation uses a symbolic confidence threshold; any value >= 2 gives
#: identical classifications, 4 matches the concrete experiments.
_EVAL_CONFIDENCE = 4

#: Count options the attacker can choose for the train step.
_TRAIN_COUNTS = ("confidence", "confidence-1")

#: Count options for a non-empty modify step.  ``"retrain"`` is
#: ``confidence + 1`` accesses: re-training an entry that holds a
#: *different* value costs one access to reset its confidence (the new
#: value installs at confidence 0, as Figure 3's diagrams show) plus
#: ``confidence`` matching accesses to reach the threshold.
_MODIFY_COUNTS = ("retrain", "one")


def _count_value(symbolic: str, confidence: int) -> int:
    if symbolic == "confidence":
        return confidence
    if symbolic == "confidence-1":
        return confidence - 1
    if symbolic == "retrain":
        return confidence + 1
    if symbolic == "one":
        return 1
    raise ModelError(f"unknown symbolic count {symbolic!r}")


def count_choices(combo: Combo) -> Tuple[Tuple[str, str], ...]:
    """The attacker's (train count, modify count) choices for ``combo``.

    Every train count against every modify count, train-major; an
    empty modify step offers only ``"one"``, which no step uses.
    """
    modify_counts: Tuple[str, ...] = (
        _MODIFY_COUNTS if not combo.modify.is_none else ("one",)
    )
    return tuple(itertools.product(_TRAIN_COUNTS, modify_counts))


class _AbstractVps:
    """Minimal LVP semantics: (value, confidence) per index."""

    def __init__(self, confidence_threshold: int) -> None:
        self.threshold = confidence_threshold
        self.entries: Dict[object, List] = {}

    def access(self, index: object, value: object, count: int) -> None:
        """Apply ``count`` training accesses of ``value`` at ``index``."""
        for _ in range(count):
            entry = self.entries.get(index)
            if entry is None:
                self.entries[index] = [value, 1]
            elif entry[0] == value:
                entry[1] += 1
            else:
                entry[0] = value
                entry[1] = 0

    def trigger(self, index: object, value: object) -> TriggerOutcome:
        """Outcome of a single probing access at ``index``."""
        entry = self.entries.get(index)
        if entry is None or entry[1] < self.threshold:
            return TriggerOutcome.NO_PREDICTION
        if entry[0] == value:
            return TriggerOutcome.CORRECT
        return TriggerOutcome.MISPREDICT


def question_of_dimension(combo: Combo, dimension: Dimension) -> str:
    """What the receiver learns from one dimension's accesses.

    ``"flavours"`` — are the two secret objects (D'/D'' or I'/I'')
    equal?  Chosen when the dimension's accesses use two secret
    flavours.  ``"vs-known"`` — does the secret object equal the known
    one?  Chosen otherwise (degenerate single-object combos are
    rejected by rule 7 before evaluation matters).

    Flavour alphabets are per dimension (Table I), so the question is
    asked per dimension too: a mixed combo with one data flavour and
    one index flavour is a vs-known question on each dimension.
    """
    flavours = {
        action.flavour
        for action in combo.actions
        if action.is_secret and action.dimension is dimension
    }
    return "flavours" if len(flavours) > 1 else "vs-known"


def _index_and_value(
    combo: Combo, action: Action, mapped: bool
) -> Tuple[object, object]:
    """(predictor index, loaded value) of one of ``combo``'s accesses.

    Data-dimension accesses share one entry unconditionally (collision
    by construction, e.g. a shared PC) and differ in value.  Index-
    dimension accesses carry per-object values; the secret index
    collides with the known index exactly when ``mapped`` (PC-indexed
    collision does *not* imply equal data — Figure 3 loads arr1 vs
    arr3 through the same predictor entry).  What a mapped secret
    equals depends on the access's dimension's question
    (:func:`question_of_dimension`).
    """
    if action.dimension is None:
        raise ModelError("the empty action accesses nothing")
    if action.dimension is Dimension.DATA:
        index: object = "shared-entry"
        if action.knowledge is Knowledge.KNOWN:
            value: object = "V_K"
        elif mapped:
            # Mapped hypothesis: the secret equals the reference —
            # the known value, or the other secret flavour.
            question = question_of_dimension(combo, action.dimension)
            value = "V_K" if question == "vs-known" else "V_secret"
        else:
            value = f"V_secret{action.flavour.value}"
        return index, value
    # INDEX dimension.
    if action.knowledge is Knowledge.KNOWN:
        return "I_K", "V_known"
    index = "I_K" if mapped else f"I_S{action.flavour.value}"
    return index, f"V_{index}"


def _evaluate_counts(
    combo: Combo, train_count: str, modify_count: str, confidence: int
) -> Tuple[TriggerOutcome, TriggerOutcome]:
    """Trigger outcomes under (mapped, unmapped) for one count choice."""
    outcomes = []
    for mapped in (True, False):
        vps = _AbstractVps(confidence)
        index, value = _index_and_value(combo, combo.train, mapped)
        vps.access(index, value, _count_value(train_count, confidence))
        if not combo.modify.is_none:
            index, value = _index_and_value(combo, combo.modify, mapped)
            vps.access(index, value, _count_value(modify_count, confidence))
        index, value = _index_and_value(combo, combo.trigger, mapped)
        outcomes.append(vps.trigger(index, value))
    return outcomes[0], outcomes[1]


#: Outcome pairs that constitute an observable timing-window signal.
_ADMISSIBLE_PAIRS = (
    frozenset({TriggerOutcome.CORRECT, TriggerOutcome.MISPREDICT}),
    frozenset({TriggerOutcome.CORRECT, TriggerOutcome.NO_PREDICTION}),
)


def _admissible_outcome_pairs(
    combo: Combo, confidence: int = _EVAL_CONFIDENCE
) -> Tuple[Tuple[TriggerOutcome, TriggerOutcome], ...]:
    """All admissible (mapped, unmapped) pairs over count choices."""
    pairs = []
    for train_count, modify_count in count_choices(combo):
        pair = _evaluate_counts(combo, train_count, modify_count, confidence)
        if frozenset(pair) in _ADMISSIBLE_PAIRS and pair not in pairs:
            pairs.append(pair)
    return tuple(pairs)


# ----------------------------------------------------------------------
# Combo symbols: canonical flavours (rule 4) and parsing
# ----------------------------------------------------------------------

#: Secret flavours in first-appearance order.
_FLAVOUR_ORDER = (SecretFlavour.PRIME, SecretFlavour.DOUBLE_PRIME)


def canonicalize(combo: Combo) -> Combo:
    """Relabel secret flavours by first appearance, per dimension.

    D'/D'' and I'/I'' are separate alphabets in Table I, so each
    dimension's first secret flavour becomes PRIME and its second
    DOUBLE_PRIME.  On a dimension-pure combo this is rule 4's
    relabelling; on a mixed one (rule 2 settles those first) it is the
    spelling :func:`repro.analysis.classify.derive_combo` recovers.
    """
    mapping: Dict[Tuple[Optional[Dimension], SecretFlavour], SecretFlavour] = {}
    for action in combo.actions:
        key = (action.dimension, action.flavour)
        if action.is_secret and key not in mapping:
            seen = sum(1 for dimension, _ in mapping if dimension is key[0])
            mapping[key] = _FLAVOUR_ORDER[seen]

    def relabel(action: Action) -> Action:
        if not action.is_secret:
            return action
        return replace(
            action, flavour=mapping[(action.dimension, action.flavour)]
        )

    return Combo(
        relabel(combo.train), relabel(combo.modify), relabel(combo.trigger)
    )


def parse_combo(symbol: str) -> Combo:
    """Parse a combo symbol like ``"(S^KD, —, S^SD')"``.

    Raises:
        ModelError: On malformed symbols.
    """
    text = symbol.strip()
    parts = [part.strip() for part in text[1:-1].split(",")]
    if not (text.startswith("(") and text.endswith(")")) or len(parts) != 3:
        raise ModelError(f"cannot parse combo symbol {symbol!r}")
    return Combo(
        Action.parse(parts[0]), Action.parse(parts[1]), Action.parse(parts[2])
    )


# ----------------------------------------------------------------------
# Category recognition for the 12 surviving patterns
# ----------------------------------------------------------------------

def _categorise(combo: Combo) -> Optional[AttackCategory]:
    """Structural category of an effective combo (Table II naming)."""
    train, modify, trigger = combo.train, combo.modify, combo.trigger
    dimension = train.dimension
    if dimension is Dimension.DATA:
        if modify.is_none:
            if train.is_known and trigger.is_secret:
                return AttackCategory.TRAIN_HIT
            if train.is_secret and trigger.is_known:
                return AttackCategory.TEST_HIT
            if (
                train.is_secret
                and trigger.is_secret
                and train.flavour is not trigger.flavour
            ):
                return AttackCategory.FILL_UP
            return None
        if (
            train.is_secret
            and modify.is_secret
            and trigger.is_secret
            and train.flavour is trigger.flavour
            and modify.flavour is not train.flavour
        ):
            return AttackCategory.SPILL_OVER
        return None
    # INDEX dimension.
    if modify.is_none:
        return None
    if train.is_known and modify.is_secret and trigger.is_known:
        return AttackCategory.TRAIN_TEST
    if (
        train.is_secret
        and modify.is_known
        and trigger.is_secret
        and train.flavour is trigger.flavour
    ):
        return AttackCategory.MODIFY_TEST
    return None


# ----------------------------------------------------------------------
# The classifier
# ----------------------------------------------------------------------

def classify(combo: Combo) -> Classification:
    """Apply the rule set to one combination."""
    actions = combo.actions

    # Rule 1: secrecy.
    if not any(action.is_secret for action in actions):
        return Classification(
            combo, Verdict.INVALID,
            reason="rule 1: no secret access, nothing to leak",
        )

    # Rule 2: dimension purity.  Data and index accesses occupy
    # disjoint predictor entries, so a non-trigger step off the
    # trigger's dimension is vacuous and can be elided; if no step
    # shares the trigger's dimension the trigger probes untrained
    # entries and the combo is invalid.
    dimensions = {action.dimension for action in actions}
    if len(dimensions) > 1:
        if (
            not combo.modify.is_none
            and combo.train.dimension is combo.trigger.dimension
        ):
            reduced = Combo(combo.train, NONE_ACTION, combo.trigger)
            return Classification(
                combo, Verdict.REDUCIBLE, reduces_to=reduced.symbol,
                reason=(
                    "rule 2: the modify step is off the trigger's "
                    "dimension; its predictor entries are disjoint and "
                    "the step is vacuous"
                ),
            )
        if (
            not combo.modify.is_none
            and combo.modify.dimension is combo.trigger.dimension
        ):
            reduced = Combo(combo.modify, NONE_ACTION, combo.trigger)
            return Classification(
                combo, Verdict.REDUCIBLE, reduces_to=reduced.symbol,
                reason=(
                    "rule 2: the train step is off the trigger's "
                    "dimension; the modify step is the effective trainer"
                ),
            )
        return Classification(
            combo, Verdict.INVALID,
            reason=(
                "rule 2: mixes data and index dimensions; no step "
                "trains the entries the trigger probes"
            ),
        )

    # Rule 3: index-flavour aliasing.
    secret_flavours = {
        action.flavour for action in actions if action.is_secret
    }
    if Dimension.INDEX in dimensions and len(secret_flavours) > 1:
        data_equiv = combo.symbol.replace("I", "D")
        return Classification(
            combo, Verdict.REDUCIBLE, reduces_to=data_equiv,
            reason=(
                "rule 3: two secret index flavours collide iff they are "
                "the same access; equivalent to the data-dimension attack"
            ),
        )

    # Rule 4: flavour canonicalisation.
    canonical = canonicalize(combo)
    if canonical != combo:
        return Classification(
            combo, Verdict.REDUCIBLE, reduces_to=canonical.symbol,
            reason="rule 4: relabelling secret flavours gives a canonical twin",
        )

    if not combo.modify.is_none:
        # Rule 5: modify merges into train.
        if _object_of(combo.modify) == _object_of(combo.train):
            reduced = Combo(combo.train, NONE_ACTION, combo.trigger)
            return Classification(
                combo, Verdict.REDUCIBLE, reduces_to=reduced.symbol,
                reason="rule 5: modify re-accesses the train object",
            )
        # Rule 6: modify merges into trigger.
        if _object_of(combo.modify) == _object_of(combo.trigger):
            reduced = Combo(combo.train, NONE_ACTION, combo.trigger)
            return Classification(
                combo, Verdict.REDUCIBLE, reduces_to=reduced.symbol,
                reason="rule 6: modify is an early occurrence of the trigger",
            )

    # Rule 7: degeneracy (single object overall).
    objects = {_object_of(action) for action in actions}
    if len(objects) < 2:
        return Classification(
            combo, Verdict.INVALID,
            reason="rule 7: every step accesses one object; no hypotheses",
        )

    # Rule 8: data-dimension known-step redundancy.  The reduction
    # only holds when the three-step combo can itself produce an
    # admissible outcome pair: e.g. (S^SD', S^KD, S^SD'') poses the
    # flavour-aliasing question, and the known modify overwrites the
    # flavour-' training so neither hypothesis ever matches the entry
    # — the combo is silent and falls through to rule 9 instead of
    # reducing to an effective two-step pattern.
    if (
        Dimension.DATA in dimensions
        and not combo.modify.is_none
        and any(action.is_known for action in actions)
        and _admissible_outcome_pairs(combo)
    ):
        if combo.train.is_known and combo.modify.is_secret:
            reduced = Combo(combo.modify, NONE_ACTION, combo.trigger)
            target = (
                reduced.symbol
                if _admissible_outcome_pairs(reduced)
                else "(S^SD', —, R/S^KD)  [Test + Hit]"
            )
            return Classification(
                combo, Verdict.REDUCIBLE, reduces_to=target,
                reason=(
                    "rule 8: data accesses collide unconditionally, so a "
                    "known reference train step is redundant next to the "
                    "secret access; the two-step pattern suffices"
                ),
            )
        if combo.modify.is_known:
            reduced = Combo(combo.modify, NONE_ACTION, combo.trigger)
            target = (
                reduced.symbol
                if _admissible_outcome_pairs(reduced)
                else "(R/S^KD, —, S^SD')  [Train + Hit]"
            )
            return Classification(
                combo, Verdict.REDUCIBLE, reduces_to=target,
                reason=(
                    "rule 8: a known modify step retrains the shared entry; "
                    "training with known data directly (two-step pattern) "
                    "answers the same question"
                ),
            )

    # Rule 9: distinguishability of trigger outcomes.
    pairs = _admissible_outcome_pairs(combo)
    if not pairs:
        return Classification(
            combo, Verdict.INVALID,
            reason=(
                "rule 9: no access-count choice yields a correct-vs-"
                "mispredict or correct-vs-no-prediction trigger pair"
            ),
        )

    category = _categorise(combo)
    if category is None:
        raise ModelError(
            f"combo {combo.symbol} survived all rules but matches no "
            "category; the rule set is inconsistent with Table II"
        )
    return Classification(
        combo, Verdict.EFFECTIVE, category=category,
        reason="passes all rules", outcome_pairs=pairs,
    )


# ----------------------------------------------------------------------
# Enumeration API
# ----------------------------------------------------------------------

def all_combos() -> List[Combo]:
    """All 8 x 9 x 8 = 576 step combinations of Table I."""
    return [
        Combo(train, modify, trigger)
        for train in TRAIN_ACTIONS
        for modify in MODIFY_ACTIONS
        for trigger in TRIGGER_ACTIONS
    ]


def classify_all() -> List[Classification]:
    """Classify every combination."""
    return [classify(combo) for combo in all_combos()]


def effective_attacks() -> List[Classification]:
    """The surviving effective attacks (Table II: exactly 12)."""
    return [c for c in classify_all() if c.is_effective]


def attacks_by_category() -> Dict[AttackCategory, List[Classification]]:
    """Effective attacks grouped by their Table II category."""
    grouped: Dict[AttackCategory, List[Classification]] = {
        category: [] for category in AttackCategory
    }
    for classification in effective_attacks():
        grouped[classification.category].append(classification)
    return grouped


def verdict_summary() -> Dict[Verdict, int]:
    """Counts of effective / reducible / invalid over all 576 combos."""
    summary = {verdict: 0 for verdict in Verdict}
    for classification in classify_all():
        summary[classification.verdict] += 1
    return summary


#: Table II of the paper, as (train, modify, trigger, category) symbols.
TABLE_II: Tuple[Tuple[str, str, str, AttackCategory], ...] = (
    ("S^KD", "—", "S^SD'", AttackCategory.TRAIN_HIT),
    ("S^KI", "S^SI'", "S^KI", AttackCategory.TRAIN_TEST),
    ("S^KI", "S^SI'", "R^KI", AttackCategory.TRAIN_TEST),
    ("R^KD", "—", "S^SD'", AttackCategory.TRAIN_HIT),
    ("R^KI", "S^SI'", "S^KI", AttackCategory.TRAIN_TEST),
    ("R^KI", "S^SI'", "R^KI", AttackCategory.TRAIN_TEST),
    ("S^SD'", "S^SD''", "S^SD'", AttackCategory.SPILL_OVER),
    ("S^SD'", "—", "S^KD", AttackCategory.TEST_HIT),
    ("S^SD'", "—", "R^KD", AttackCategory.TEST_HIT),
    ("S^SD'", "—", "S^SD''", AttackCategory.FILL_UP),
    ("S^SI'", "S^KI", "S^SI'", AttackCategory.MODIFY_TEST),
    ("S^SI'", "R^KI", "S^SI'", AttackCategory.MODIFY_TEST),
)


def table_ii_combos() -> List[Tuple[Combo, AttackCategory]]:
    """Table II parsed into :class:`Combo` objects."""
    rows = []
    for train, modify, trigger, category in TABLE_II:
        combo = Combo(
            Action.parse(train), Action.parse(modify), Action.parse(trigger)
        )
        rows.append((combo, category))
    return rows
