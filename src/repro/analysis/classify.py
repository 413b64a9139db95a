"""Static classification of attack variants onto the Table I alphabet.

A variant is a recipe for three program steps — train, modify,
trigger, identified by their load tags.  Capturing the recipe under
*both* secret hypotheses and diffing the two captures recovers the
Table I action of each step syntactically:

* a step program present under only one hypothesis, or whose tagged
  load sits at a different PC, is **secret in the index dimension**
  (its existence / placement encodes the secret);
* a step whose tagged load reads different architectural values
  across the hypotheses — or is annotated ``secret`` — is **secret in
  the data dimension**;
* anything else is a **known** access, inheriting the dimension the
  attack is about.

Secret flavours (' / '') are assigned by first appearance of each
distinct secret *object* (program identity, PC pair or data address),
matching the paper's notation.  The resulting
:class:`~repro.core.model.Combo` is put through the Table II reduction
rules of :func:`repro.core.model.classify`, giving a fully static
prediction of whether the cell can constitute an attack at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.capture import CapturedTrial, capture_variant
from repro.analysis.taint import analyze_taint
from repro.core.actions import (
    NONE_ACTION,
    Action,
    Actor,
    Dimension,
    Knowledge,
    SecretFlavour,
)
from repro.core.channels import ChannelType
from repro.core.model import _FLAVOUR_ORDER, Classification, Combo, classify
from repro.errors import AnalysisError
from repro.isa.program import Program
from repro.workloads.gadgets import Layout

if TYPE_CHECKING:
    from repro.core.variants import AttackVariant

#: The three step roles, in step order, with the load tag naming each.
STEP_TAGS: Tuple[Tuple[str, str], ...] = (
    ("train", "train-load"),
    ("modify", "modify-load"),
    ("trigger", "trigger-load"),
)


@dataclass(frozen=True)
class StepDerivation:
    """How one step's Table I action was derived."""

    role: str
    program: Optional[str]
    action: Action
    reason: str
    pc: Optional[int] = None
    addr: Optional[int] = None


@dataclass
class StaticClassification:
    """Static verdict for one (variant, channel) sweep cell."""

    variant_name: str
    channel: ChannelType
    combo: Combo
    classification: Classification
    steps: List[StepDerivation] = field(default_factory=list)
    mapped: Optional[CapturedTrial] = None
    unmapped: Optional[CapturedTrial] = None

    @property
    def expected_effective(self) -> bool:
        """Does the static model predict this cell can succeed?"""
        return self.classification.is_effective

    def to_payload(self) -> Dict[str, object]:
        """JSON-serialisable summary (stored next to dynamic results)."""
        return {
            "variant": self.variant_name,
            "channel": self.channel.value,
            "symbol": self.combo.symbol,
            "verdict": self.classification.verdict.value,
            "category": (
                self.classification.category.value
                if self.classification.category else None
            ),
            "effective": self.expected_effective,
            "steps": [
                {
                    "role": step.role,
                    "program": step.program,
                    "action": step.action.symbol,
                    "reason": step.reason,
                }
                for step in self.steps
            ],
        }


# ----------------------------------------------------------------------
# Step extraction
# ----------------------------------------------------------------------

def _step_program(trial: CapturedTrial, tag: str) -> Optional[Program]:
    """The unique program of ``trial`` containing a ``tag`` load."""
    matches = [
        captured.program for captured in trial.programs
        if captured.program.pcs_tagged(tag)
    ]
    if len(matches) > 1:
        names = ", ".join(p.name for p in matches)
        raise AnalysisError(
            f"ambiguous step: tag {tag!r} appears in programs {names}"
        )
    return matches[0] if matches else None


def _tagged_load(program: Program, tag: str) -> Tuple[int, int, bool]:
    """(pc, addr, secret) of the first dynamic ``tag`` load."""
    loads = analyze_taint(program).loads_tagged(tag)
    if not loads:
        raise AnalysisError(
            f"program {program.name!r} tags {tag!r} on a non-load"
        )
    first = loads[0]
    return first.pc, first.addr, first.secret


@dataclass
class _RawStep:
    """A step before flavour/dimension resolution."""

    role: str
    program: Optional[str]
    pid: Optional[int]
    secret: bool
    dimension: Optional[Dimension]
    object_key: Optional[Tuple]
    reason: str
    pc: Optional[int] = None
    addr: Optional[int] = None


def _derive_step(
    role: str,
    tag: str,
    mapped: CapturedTrial,
    unmapped: CapturedTrial,
) -> Optional[_RawStep]:
    """Diff the two hypothesis captures into one raw step."""
    prog_m = _step_program(mapped, tag)
    prog_u = _step_program(unmapped, tag)
    if prog_m is None and prog_u is None:
        return None
    if (prog_m is None) != (prog_u is None):
        present = prog_m or prog_u
        return _RawStep(
            role=role, program=present.name, pid=present.pid, secret=True,
            dimension=Dimension.INDEX,
            object_key=("presence", present.name),
            reason=(
                f"program {present.name!r} runs under only one secret "
                "hypothesis: its presence is a secret-dependent index "
                "access"
            ),
        )
    pc_m, addr_m, secret_m = _tagged_load(prog_m, tag)
    pc_u, addr_u, secret_u = _tagged_load(prog_u, tag)
    if pc_m != pc_u:
        return _RawStep(
            role=role, program=prog_m.name, pid=prog_m.pid, secret=True,
            dimension=Dimension.INDEX,
            object_key=("pc", pc_m, pc_u),
            reason=(
                f"tagged load pinned at {pc_m:#x} vs {pc_u:#x} across "
                "hypotheses: the load PC is the secret"
            ),
            pc=pc_m, addr=addr_m,
        )
    value_m = mapped.values.get((prog_m.pid, addr_m)) if addr_m is not None else None
    value_u = unmapped.values.get((prog_u.pid, addr_u)) if addr_u is not None else None
    if value_m != value_u or addr_m != addr_u or secret_m or secret_u:
        if value_m != value_u or addr_m != addr_u:
            why = (
                f"loaded value differs across hypotheses "
                f"({value_m!r} vs {value_u!r})"
            )
        else:
            why = "load carries the secret annotation"
        # The object key carries *both* hypothesis addresses: under the
        # mapped hypothesis two distinct secret flavours may resolve to
        # the same concrete slot (that equality is the hypothesis), so
        # the unmapped address is what keeps their objects distinct.
        return _RawStep(
            role=role, program=prog_m.name, pid=prog_m.pid, secret=True,
            dimension=Dimension.DATA,
            object_key=("data", prog_m.pid, addr_m, addr_u),
            reason=why + ": secret data access",
            pc=pc_m, addr=addr_m,
        )
    return _RawStep(
        role=role, program=prog_m.name, pid=prog_m.pid, secret=False,
        dimension=None, object_key=None,
        reason=(
            "same program, PC and value under both hypotheses: "
            "known access"
        ),
        pc=pc_m, addr=addr_m,
    )


# ----------------------------------------------------------------------
# Action construction
# ----------------------------------------------------------------------

def _actions_of(
    raw_steps: List[Optional[_RawStep]],
    layout: Layout,
    pc_dimension: Optional[Mapping[int, Dimension]] = None,
) -> List[Action]:
    """Resolve flavours and known-step dimensions, build Actions.

    ``pc_dimension`` optionally maps a load PC to the dimension a
    *known* access at that PC targets.  Without it, known steps
    inherit the secret dimension of the cell (or DATA) — fine for the
    six hand-built variants, but the exhaustive enumerator generates
    mixed-dimension combos where a known index access must not be
    mistaken for a known data access.
    """
    flavours: Dict[Tuple, SecretFlavour] = {}
    #: Flavour namespaces are per dimension (D'/D'' vs I'/I'').
    dimension_counts: Dict[Dimension, int] = {}
    secret_dimension: Optional[Dimension] = None
    for raw in raw_steps:
        if raw is None or not raw.secret:
            continue
        if secret_dimension is None:
            secret_dimension = raw.dimension
        if raw.object_key not in flavours:
            assert raw.dimension is not None
            seen = dimension_counts.get(raw.dimension, 0)
            if seen >= len(_FLAVOUR_ORDER):
                raise AnalysisError(
                    "more than two distinct secret objects in one "
                    "dimension: "
                    + ", ".join(repr(k) for k in flavours)
                )
            flavours[raw.object_key] = _FLAVOUR_ORDER[seen]
            dimension_counts[raw.dimension] = seen + 1

    actions: List[Action] = []
    for raw in raw_steps:
        if raw is None:
            actions.append(NONE_ACTION)
            continue
        actor = (
            Actor.SENDER if raw.pid == layout.sender_pid else Actor.RECEIVER
        )
        if raw.secret:
            if actor is not Actor.SENDER:
                raise AnalysisError(
                    f"step {raw.role!r} ({raw.program}) is secret-dependent "
                    f"but runs as the receiver (pid {raw.pid}): only the "
                    "sender has logical access to the secret"
                )
            actions.append(Action(
                actor=actor, knowledge=Knowledge.SECRET,
                dimension=raw.dimension, flavour=flavours[raw.object_key],
            ))
        else:
            dimension = None
            if pc_dimension is not None and raw.pc is not None:
                dimension = pc_dimension.get(raw.pc)
            if dimension is None:
                dimension = secret_dimension or Dimension.DATA
            actions.append(Action(
                actor=actor, knowledge=Knowledge.KNOWN,
                dimension=dimension,
            ))
    return actions


def derive_combo(
    mapped: CapturedTrial,
    unmapped: CapturedTrial,
    layout: Optional[Layout] = None,
    *,
    pc_dimension: Optional[Mapping[int, Dimension]] = None,
    required_roles: Sequence[str] = ("train", "trigger"),
) -> Tuple[Combo, List[StepDerivation]]:
    """Diff two hypothesis captures into a Table I :class:`Combo`.

    The captures come from :func:`capture_variant` (the enumerator
    captures :class:`~repro.core.synthesis.ComboAttack`) or are built
    by hand.  Step roles are keyed purely by load tag, so submission
    order does not matter; missing required roles raise.

    Raises:
        AnalysisError: If the captures cannot be mapped onto the
            three-step schema (missing required step, ambiguous tags,
            secret access by the receiver, >2 secret objects).
    """
    layout = layout or mapped.layout
    raw_steps = [
        _derive_step(role, tag, mapped, unmapped)
        for role, tag in STEP_TAGS
    ]
    for raw, (role, tag) in zip(raw_steps, STEP_TAGS):
        if raw is None and role in required_roles:
            raise AnalysisError(
                f"no {role} step: no captured program contains a "
                f"{tag!r} load"
            )
    actions = _actions_of(raw_steps, layout, pc_dimension)
    combo = Combo(train=actions[0], modify=actions[1], trigger=actions[2])
    steps = [
        StepDerivation(
            role=role,
            program=raw.program if raw else None,
            action=action,
            reason=raw.reason if raw else "step not used",
            pc=raw.pc if raw else None,
            addr=raw.addr if raw else None,
        )
        for raw, action, (role, _) in zip(raw_steps, actions, STEP_TAGS)
    ]
    return combo, steps


def classify_cell(
    variant: "AttackVariant",
    channel: ChannelType,
    *,
    confidence: int = 4,
    chain_length: Optional[int] = None,
    modify_mode: str = "retrain",
    layout: Optional[Layout] = None,
) -> StaticClassification:
    """Statically classify one (variant, channel) sweep cell.

    Captures the variant under both secret hypotheses, derives the
    Table I action of each step, and runs the resulting combo through
    the Table II reduction rules.

    Raises:
        AnalysisError: If the captures cannot be mapped onto the
            three-step schema (missing train/trigger step, ambiguous
            tags, secret access by the receiver, >2 secret objects).
    """
    layout = layout or Layout()
    mapped = capture_variant(
        variant, channel, True, confidence=confidence,
        chain_length=chain_length, modify_mode=modify_mode, layout=layout,
    )
    unmapped = capture_variant(
        variant, channel, False, confidence=confidence,
        chain_length=chain_length, modify_mode=modify_mode, layout=layout,
    )

    try:
        combo, steps = derive_combo(mapped, unmapped, layout)
    except AnalysisError as exc:
        raise AnalysisError(f"variant {variant.name!r}: {exc}") from None
    classification = classify(combo)
    return StaticClassification(
        variant_name=variant.name,
        channel=channel,
        combo=combo,
        classification=classification,
        steps=steps,
        mapped=mapped,
        unmapped=unmapped,
    )
