"""Exhaustive static certification of the 576-combination attack space.

The paper reduces its 8 x 9 x 8 = 576 (train, modify, trigger)
combinations (Table I) to 12 effective attacks in 6 categories
(Table II) by hand-derived rules.  :mod:`repro.core.model` implements
a rule set reproducing that reduction; this module *checks* it
mechanically, end to end, without trusting the rules themselves:

1. **Generate** — for every combo and every access-count choice, the
   combo's one realization (:class:`repro.core.synthesis.ComboAttack`,
   the attack the dynamic confirmation measures and the soundness
   check simulates) is captured under both secret hypotheses
   (:func:`repro.analysis.capture.capture_variant`), the path
   preflight takes for the Table II variants.
2. **Interpret** — each captured program sequence is replayed through
   the abstract VPS interpreter
   (:class:`repro.analysis.vpstate.VpsAbstractMachine`), yielding the
   trigger outcome pair the receiver could observe.  A combo *leaks
   statically* iff some count choice yields one of Figure 2's
   admissible pairs ({correct, mispredict} or
   {correct, no-prediction}).
3. **Derive** — the (confidence, one) captures are fed back through
   the static classifier (:func:`repro.analysis.classify.derive_combo`);
   the derived combo must equal the canonical form of the generator's
   input (:func:`repro.core.model.canonicalize`), closing the
   generator/classifier loop.
4. **Partition** — every combo's reduction chain
   (:attr:`~repro.core.model.Classification.reduces_to` links) is
   followed to a terminal verdict, partitioning the 576-combo space
   into equivalence classes; the classes are diffed against
   :func:`repro.core.model.table_ii_combos`.

The result is a machine-checked certificate
(:func:`build_certificate`) stating either "Table II is complete and
minimal under our model" or naming the offending combos.  Combos that
are *value*-distinguishable only (both hypotheses produce the same
trigger outcome but a confident predictor entry holds
hypothesis-dependent values) are reported separately as
``extended_persistent_candidates``: decoding them requires an extra
receiver access that turns the combo into a Test + Hit, so they do not
contradict Table II completeness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.capture import CapturedTrial, capture_variant
from repro.analysis.classify import derive_combo
from repro.analysis.vpstate import VpsAbstractMachine
from repro.core.actions import Dimension
from repro.core.channels import ChannelType
from repro.core.model import (
    _ADMISSIBLE_PAIRS,
    _EVAL_CONFIDENCE,
    Classification,
    Combo,
    TriggerOutcome,
    Verdict,
    all_combos,
    canonicalize,
    classify,
    count_choices,
    parse_combo,
    table_ii_combos,
)
from repro.core.synthesis import INDEX_PCS, ComboAttack
from repro.errors import AnalysisError
from repro.workloads.gadgets import Layout

#: Dependent-chain length of the captured trigger programs (matches the
#: soundness synthesizer; the abstract interpreter ignores the chain).
HUNT_CHAIN_LENGTH = 4

#: Known-access dimension by load PC, for :func:`derive_combo`: the
#: synthesis grounding places every data-dimension access behind the
#: shared entry's PC and every index access at its own PC.
PC_DIMENSION: Dict[int, Dimension] = {
    INDEX_PCS["shared-entry"]: Dimension.DATA,
    INDEX_PCS["I_K"]: Dimension.INDEX,
    INDEX_PCS["I_S'"]: Dimension.INDEX,
    INDEX_PCS["I_S''"]: Dimension.INDEX,
}

#: Rule 8 emits human-readable category fallbacks when the two-step
#: reduction is not itself admissible; the chain follower maps them to
#: the category's canonical Table II representative.
RULE8_FALLBACK_TARGETS: Dict[str, str] = {
    "(S^SD', —, R/S^KD)  [Test + Hit]": "(S^SD', —, S^KD)",
    "(R/S^KD, —, S^SD')  [Train + Hit]": "(S^KD, —, S^SD')",
}

#: Recorded dynamic Table III verdict under the paper's configuration
#: (LVP predictor, no defense): every Table II variant is effective on
#: its primary channel.  The certificate's agreement claim checks the
#: static verdicts against this record.
RECORDED_TABLE_III_EFFECTIVE = True


# ----------------------------------------------------------------------
# Abstract interpretation of one combo
# ----------------------------------------------------------------------

def _trigger_observation(
    trial: CapturedTrial, confidence: int
) -> Tuple[TriggerOutcome, Optional[int]]:
    """(trigger outcome, confident entry value) of one captured trial."""
    machine = VpsAbstractMachine(confidence_threshold=confidence)
    machine.run_trial(trial)
    events = [e for e in machine.events if e.tag == "trigger-load"]
    if len(events) != 1:
        raise AnalysisError(
            f"expected exactly one trigger load, saw {len(events)}"
        )
    event = events[0]
    if event.outcome is TriggerOutcome.UNKNOWN:
        raise AnalysisError(
            "generated trigger has an unresolvable VPS index"
        )
    return event.outcome, event.entry_value


@dataclass(frozen=True)
class CountObservation:
    """Trigger observations of one count choice, both hypotheses."""

    train_count: str
    modify_count: str
    mapped_outcome: TriggerOutcome
    unmapped_outcome: TriggerOutcome
    mapped_entry_value: Optional[int]
    unmapped_entry_value: Optional[int]

    @property
    def admissible(self) -> bool:
        """Is the outcome pair an observable timing signal (Figure 2)?"""
        pair = frozenset({self.mapped_outcome, self.unmapped_outcome})
        return pair in _ADMISSIBLE_PAIRS

    @property
    def value_differs(self) -> bool:
        """Does a confident entry hold hypothesis-dependent values?"""
        return self.mapped_entry_value != self.unmapped_entry_value


@dataclass
class ComboVerdict:
    """Everything the hunt established about one combo."""

    combo: Combo
    #: The rule-set classification (:func:`repro.core.model.classify`).
    model: Classification
    #: The terminal classification after following reduction links.
    terminal: Classification
    #: Symbols visited from the combo to its terminal, inclusive.
    chain: List[str]
    #: Trigger observations per count choice, in evaluation order.
    observations: List[CountObservation]
    #: Canonical combo re-derived from the captured programs.
    derived_symbol: str

    @property
    def timing_leak(self) -> bool:
        """Some count choice yields an admissible outcome pair."""
        return any(obs.admissible for obs in self.observations)

    @property
    def witness(self) -> Optional[CountObservation]:
        """The first admissible count choice (for dynamic replay)."""
        for obs in self.observations:
            if obs.admissible:
                return obs
        return None

    @property
    def value_distinguishable(self) -> bool:
        """Some count choice leaves hypothesis-dependent entry values."""
        return any(obs.value_differs for obs in self.observations)

    @property
    def roundtrip_ok(self) -> bool:
        """Did the classifier recover the generator's canonical combo?"""
        return self.derived_symbol == canonicalize(self.combo).symbol

    @property
    def terminal_effective(self) -> bool:
        """Does the reduction chain land on an effective attack?"""
        return self.terminal.verdict is Verdict.EFFECTIVE

    def to_payload(self) -> Dict[str, object]:
        """Compact JSON row for the certificate."""
        witness = self.witness
        return {
            "symbol": self.combo.symbol,
            "verdict": self.model.verdict.value,
            "category": (
                self.model.category.value if self.model.category else None
            ),
            "reduces_to": self.model.reduces_to,
            "terminal": self.chain[-1],
            "terminal_verdict": self.terminal.verdict.value,
            "terminal_category": (
                self.terminal.category.value
                if self.terminal.category else None
            ),
            "timing_leak": self.timing_leak,
            "witness": (
                f"{witness.train_count}/{witness.modify_count}"
                if witness else None
            ),
            "value_distinguishable": self.value_distinguishable,
            "derived": self.derived_symbol,
            "roundtrip_ok": self.roundtrip_ok,
        }


def follow_reduction(
    combo: Combo, max_hops: int = 16
) -> Tuple[Classification, List[str]]:
    """Follow ``reduces_to`` links to a terminal classification.

    Returns the terminal (EFFECTIVE or INVALID) classification and the
    chain of combo symbols visited, starting with ``combo`` itself.

    Raises:
        AnalysisError: On a reduction cycle or an overlong chain.
        ModelError: On an unparseable target.
    """
    chain = [combo.symbol]
    current = classify(combo)
    while current.verdict is Verdict.REDUCIBLE:
        if len(chain) > max_hops:
            raise AnalysisError(
                f"reduction chain from {combo.symbol} exceeds "
                f"{max_hops} hops: {' -> '.join(chain)}"
            )
        target = current.reduces_to or ""
        target = RULE8_FALLBACK_TARGETS.get(target, target)
        next_combo = parse_combo(target)
        if next_combo.symbol in chain:
            raise AnalysisError(
                f"reduction cycle: {' -> '.join(chain + [next_combo.symbol])}"
            )
        chain.append(next_combo.symbol)
        current = classify(next_combo)
    return current, chain


def hunt_combo(
    combo: Combo,
    *,
    confidence: int = _EVAL_CONFIDENCE,
    layout: Optional[Layout] = None,
) -> ComboVerdict:
    """Capture, interpret, derive and chain-follow one combo."""
    layout = layout or Layout()
    observations: List[CountObservation] = []
    captures: Dict[Tuple[str, str], List[CapturedTrial]] = {}
    for train_count, modify_count in count_choices(combo):
        attack = ComboAttack(
            combo, train_count=train_count, modify_count=modify_count,
        )
        trials = captures[(train_count, modify_count)] = [
            capture_variant(
                attack, ChannelType.TIMING_WINDOW, mapped,
                confidence=confidence, chain_length=HUNT_CHAIN_LENGTH,
                layout=layout,
            )
            for mapped in (True, False)
        ]
        (mapped_outcome, mapped_value), (unmapped_outcome, unmapped_value) = [
            _trigger_observation(trial, confidence) for trial in trials
        ]
        observations.append(CountObservation(
            train_count=train_count,
            modify_count=modify_count,
            mapped_outcome=mapped_outcome,
            unmapped_outcome=unmapped_outcome,
            mapped_entry_value=mapped_value,
            unmapped_entry_value=unmapped_value,
        ))

    mapped_trial, unmapped_trial = captures[("confidence", "one")]
    derived, _steps = derive_combo(
        mapped_trial, unmapped_trial, layout, pc_dimension=PC_DIMENSION,
    )

    terminal, chain = follow_reduction(combo)
    return ComboVerdict(
        combo=combo,
        model=classify(combo),
        terminal=terminal,
        chain=chain,
        observations=observations,
        derived_symbol=derived.symbol,
    )


def hunt_records(
    *,
    confidence: int = _EVAL_CONFIDENCE,
    layout: Optional[Layout] = None,
) -> List[ComboVerdict]:
    """Hunt the full 576-combo space, in Table I enumeration order."""
    layout = layout or Layout()
    return [
        hunt_combo(combo, confidence=confidence, layout=layout)
        for combo in all_combos()
    ]


# ----------------------------------------------------------------------
# Certificate
# ----------------------------------------------------------------------

def _soundness_claim(records: List[ComboVerdict]) -> Dict[str, object]:
    """Model-effective set == Table II, categories included."""
    effective = {
        r.combo.symbol: r.model.category for r in records
        if r.model.verdict is Verdict.EFFECTIVE
    }
    table = {combo.symbol: category for combo, category in table_ii_combos()}
    missing = sorted(set(table) - set(effective))
    extra = sorted(set(effective) - set(table))
    category_mismatches = sorted(
        symbol for symbol in set(table) & set(effective)
        if table[symbol] is not effective[symbol]
    )
    not_leaking = sorted(
        r.combo.symbol for r in records
        if r.model.verdict is Verdict.EFFECTIVE and not r.timing_leak
    )
    ok = not (missing or extra or category_mismatches or not_leaking)
    return {
        "ok": ok,
        "missing_from_model": missing,
        "not_in_table_ii": extra,
        "category_mismatches": category_mismatches,
        "effective_without_static_leak": not_leaking,
        "statement": (
            "every model-effective combo is a Table II row with the "
            "matching category, and each one leaks statically"
        ),
    }


def _completeness_claim(records: List[ComboVerdict]) -> Dict[str, object]:
    """Static leak <=> reduction chain terminates in an effective class."""
    counterexamples: List[Dict[str, object]] = []
    for record in records:
        if record.timing_leak and not record.terminal_effective:
            counterexamples.append({
                "symbol": record.combo.symbol,
                "kind": "leaks-but-unclassified",
                "detail": (
                    "static analysis finds an admissible outcome pair "
                    "but the reduction chain ends at "
                    f"{record.chain[-1]} ({record.terminal.verdict.value})"
                ),
            })
        elif record.terminal_effective and not record.timing_leak:
            counterexamples.append({
                "symbol": record.combo.symbol,
                "kind": "classified-but-silent",
                "detail": (
                    "the reduction chain reaches effective class "
                    f"{record.chain[-1]} but no count choice yields an "
                    "admissible outcome pair"
                ),
            })
    return {
        "ok": not counterexamples,
        "counterexamples": counterexamples,
        "statement": (
            "a combo leaks statically if and only if its reduction "
            "chain terminates in a Table II class"
        ),
    }


def _minimality_claim(records: List[ComboVerdict]) -> Dict[str, object]:
    """The 12 classes are pairwise distinct and span 6 categories."""
    by_symbol = {r.combo.symbol: r for r in records}
    classes: Dict[str, List[str]] = {}
    for record in records:
        if record.terminal_effective:
            classes.setdefault(record.chain[-1], []).append(
                record.combo.symbol
            )
    representatives_not_own_class = sorted(
        symbol for symbol in classes
        if symbol not in by_symbol
        or by_symbol[symbol].model.verdict is not Verdict.EFFECTIVE
    )
    categories = {
        by_symbol[symbol].model.category
        for symbol in classes if symbol in by_symbol
    }
    ok = (
        len(classes) == 12
        and not representatives_not_own_class
        and len(categories - {None}) == 6
    )
    return {
        "ok": ok,
        "classes": len(classes),
        "categories": len(categories - {None}),
        "representatives_not_effective": representatives_not_own_class,
        "statement": (
            "the leaking combos partition into exactly 12 equivalence "
            "classes across 6 categories, each represented by its own "
            "model-effective combo (no class reduces to another)"
        ),
    }


def _roundtrip_claim(records: List[ComboVerdict]) -> Dict[str, object]:
    failures = sorted(
        r.combo.symbol for r in records if not r.roundtrip_ok
    )
    return {
        "ok": not failures,
        "failures": failures,
        "statement": (
            "the static classifier re-derives every generated combo's "
            "canonical form from its programs"
        ),
    }


def _table_iii_claim(records: List[ComboVerdict]) -> Dict[str, object]:
    by_symbol = {r.combo.symbol: r for r in records}
    rows = []
    ok = True
    for combo, category in table_ii_combos():
        record = by_symbol[combo.symbol]
        agree = record.timing_leak == RECORDED_TABLE_III_EFFECTIVE
        ok = ok and agree
        rows.append({
            "symbol": combo.symbol,
            "category": category.value,
            "static_effective": record.timing_leak,
            "dynamic_recorded": RECORDED_TABLE_III_EFFECTIVE,
            "agree": agree,
        })
    return {
        "ok": ok,
        "rows": rows,
        "statement": (
            "the static verdict of each Table II variant agrees with "
            "the recorded dynamic Table III verdict (LVP, no defense)"
        ),
    }


def build_certificate(
    records: List[ComboVerdict],
    *,
    confidence: int = _EVAL_CONFIDENCE,
) -> Dict[str, object]:
    """Assemble the machine-checked completeness certificate.

    The payload is fully deterministic (no timestamps, no host state):
    serialising it with sorted keys yields byte-identical files across
    runs, which the CI hunt-smoke leg asserts.
    """
    verdicts = {verdict.value: 0 for verdict in Verdict}
    for record in records:
        verdicts[record.model.verdict.value] += 1

    classes: Dict[str, List[str]] = {}
    invalid_members: List[str] = []
    for record in records:
        if record.terminal_effective:
            classes.setdefault(record.chain[-1], []).append(
                record.combo.symbol
            )
        else:
            invalid_members.append(record.combo.symbol)
    by_symbol = {r.combo.symbol: r for r in records}

    claims = {
        "soundness": _soundness_claim(records),
        "completeness": _completeness_claim(records),
        "minimality": _minimality_claim(records),
        "derivation_roundtrip": _roundtrip_claim(records),
        "table_iii_agreement": _table_iii_claim(records),
    }
    certified = all(claim["ok"] for claim in claims.values())
    return {
        "schema": "hunt-certificate/v1",
        "confidence": confidence,
        "space": {
            "train_actions": 8,
            "modify_actions": 9,
            "trigger_actions": 8,
            "combos": len(records),
        },
        "verdicts": verdicts,
        "classes": [
            {
                "symbol": symbol,
                "category": (
                    by_symbol[symbol].model.category.value
                    if symbol in by_symbol and by_symbol[symbol].model.category
                    else None
                ),
                "members": len(members),
                "member_symbols": sorted(members),
            }
            for symbol, members in sorted(classes.items())
        ],
        "invalid_members": len(invalid_members),
        "claims": claims,
        "extended_persistent_candidates": sorted(
            r.combo.symbol for r in records
            if r.value_distinguishable and not r.timing_leak
        ),
        "combos": [record.to_payload() for record in records],
        "certified": certified,
    }


def hunt_certificate(
    *,
    confidence: int = _EVAL_CONFIDENCE,
    layout: Optional[Layout] = None,
) -> Dict[str, object]:
    """Hunt the full space and build the certificate in one call."""
    return build_certificate(
        hunt_records(confidence=confidence, layout=layout),
        confidence=confidence,
    )


def dynamic_targets(records: List[ComboVerdict]) -> List[ComboVerdict]:
    """Combos worth confirming dynamically.

    The model-effective twelve (static and dynamic evidence should
    agree on each) plus any completeness counterexample — a combo the
    static pass flags as leaking that the reduction does not map to a
    Table II class (expected empty; if the hunt ever finds one, it is
    a candidate *new* variant and gets measured).
    """
    targets = [
        r for r in records if r.model.verdict is Verdict.EFFECTIVE
    ]
    targets.extend(
        r for r in records
        if r.timing_leak and not r.terminal_effective
    )
    return targets
