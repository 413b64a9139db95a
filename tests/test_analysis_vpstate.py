"""Unit tests for the abstract VPS interpreter."""

from repro.analysis.vpstate import VpsAbstractMachine
from repro.core.model import TriggerOutcome
from repro.isa.assembler import assemble
from repro.vp.indexing import DATA_ADDRESS_INDEX


def _train_trigger(loops):
    return assemble(
        f"""
        .pin 0x40
        .loop {loops}
        .tag train-load
        load r1, [0x200]
        .endloop
        halt
        """,
        name="trainer",
    )


def test_confidence_accumulates_to_prediction():
    machine = VpsAbstractMachine(confidence_threshold=4)
    events = machine.execute(_train_trigger(6), {(0, 0x200): 7})
    outcomes = [e.outcome for e in events]
    # Entry created on access 1 (conf 1) ... prediction fires once
    # confidence >= 4, i.e. on the 5th access.
    assert outcomes[:4] == [TriggerOutcome.NO_PREDICTION] * 4
    assert outcomes[4:] == [TriggerOutcome.CORRECT] * 2
    assert machine.confident_indices
    assert machine.predicted_pcs("trainer") == frozenset([0x40])


def test_under_threshold_never_predicts():
    machine = VpsAbstractMachine(confidence_threshold=4)
    events = machine.execute(_train_trigger(3), {(0, 0x200): 7})
    assert all(e.outcome is TriggerOutcome.NO_PREDICTION for e in events)
    assert not machine.confident_indices


def test_mispredict_on_changed_value_and_entry_value():
    trainer = _train_trigger(6)
    trigger = assemble(
        ".pin 0x40\n.tag trigger-load\nload r1, [0x300]\nhalt\n",
        name="trigger",
    )
    machine = VpsAbstractMachine(confidence_threshold=4)
    machine.execute(trainer, {(0, 0x200): 7, (0, 0x300): 9})
    events = machine.execute(trigger, {(0, 0x200): 7, (0, 0x300): 9})
    assert events[0].outcome is TriggerOutcome.MISPREDICT
    # The *predicted* (stale trained) value is reported, pre-update.
    assert events[0].entry_value == 7


def test_value_change_resets_confidence():
    machine = VpsAbstractMachine(confidence_threshold=4)
    machine.execute(_train_trigger(6), {(0, 0x200): 7})
    machine.execute(
        assemble(".pin 0x40\nload r1, [0x200]\nhalt\n", name="evict"),
        {(0, 0x200): 99},
    )
    assert not machine.confident_indices


def test_secret_training_marks_entry():
    trainer = assemble(
        """
        .pin 0x40
        .loop 6
        .secret
        load r1, [0x200]
        .endloop
        halt
        """,
        name="secret-trainer",
    )
    trigger = assemble(
        ".pin 0x40\n.tag trigger-load\nload r1, [0x200]\nhalt\n",
        name="victim",
    )
    machine = VpsAbstractMachine(confidence_threshold=4)
    machine.execute(trainer, {(0, 0x200): 42})
    events = machine.execute(trigger, {(0, 0x200): 42})
    assert events[0].entry_secret
    assert machine.secret_predicted_pcs("victim") == frozenset([0x40])


def test_secret_program_flag():
    machine = VpsAbstractMachine(confidence_threshold=4)
    machine.execute(
        _train_trigger(6), {(0, 0x200): 7}, secret_program=True
    )
    assert machine.secret[machine.confident_indices[0]]


def test_uninitialised_addresses_read_stable_placeholder():
    # Two loads of the same unwritten address must agree (confidence
    # accumulates), and differ from any concrete value.
    machine = VpsAbstractMachine(confidence_threshold=4)
    events = machine.execute(_train_trigger(6), {})
    assert events[-1].outcome is TriggerOutcome.CORRECT


def test_data_indexing_unknown_address_is_unknown():
    program = assemble(
        "rdtsc r5\nload r1, [r5+0x10]\nhalt\n", name="dyn"
    )
    machine = VpsAbstractMachine(
        index_function=DATA_ADDRESS_INDEX, confidence_threshold=4
    )
    events = machine.execute(program, {})
    assert events[0].outcome is TriggerOutcome.UNKNOWN
    assert events[0].index is None
    assert len(machine.predictor.table) == 0  # sound: no update on unknown index


def test_pid_separates_values_not_indices():
    # Same PC in two processes shares the PC-indexed entry (that *is*
    # the cross-process attack surface).
    trainer = _train_trigger(6)
    other = assemble(
        ".pin 0x40\nload r1, [0x200]\nhalt\n", name="other", pid=1
    )
    machine = VpsAbstractMachine(confidence_threshold=4)
    machine.execute(trainer, {(0, 0x200): 7, (1, 0x200): 7})
    events = machine.execute(other, {(0, 0x200): 7, (1, 0x200): 7})
    assert events[0].outcome is TriggerOutcome.CORRECT
