"""The static analyzer predicts what the scalar core does.

``repro.analysis`` folds registers and effective addresses with the
core's own ALU and address mask and replays loads against the LVP's
own table, so on a program whose every load reaches the VPS (a flush
before it, a fence on each side) it must report the core's load
addresses and the core's prediction outcomes exactly.  The programs
below wrap: a base register stepping by ``2**40`` (the address mask's
width), a negative ``li`` immediate, a ``sub`` below zero, and shifts
by 64 or more, which the core reduces modulo 64.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.analysis.taint import analyze_taint
from repro.analysis.vpstate import VpsAbstractMachine
from repro.core.model import TriggerOutcome
from repro.isa.assembler import assemble
from repro.isa.instructions import AluOp
from repro.memory.hierarchy import MemorySystem
from repro.pipeline.core import Core
from repro.vp.indexing import DATA_ADDRESS_INDEX, PC_INDEX
from repro.vp.lvp import LastValuePredictor

from tests.conftest import deterministic_memory_config
from tests.test_property_pipeline import _REG, _STEP, _build_program, _common

#: (predicted, prediction_correct) of a core load event -> its outcome.
_OUTCOME = {
    (False, None): TriggerOutcome.NO_PREDICTION,
    (True, True): TriggerOutcome.CORRECT,
    (True, False): TriggerOutcome.MISPREDICT,
}


def _flushed_loop(name, setup, step, *, iterations=6, pid=0):
    """``setup``, then ``iterations`` flushed, fenced loads of ``[r2]``
    at PC 0x100, each followed by ``step``."""
    return assemble(
        f"""
        {setup}
        flush [r2+0]
        fence
.pin 0x100
.loop {iterations}
        load  r1, [r2+0]
        fence
        {step}
        flush [r2+0]
        fence
.endloop
        halt
        """,
        name=name, pid=pid,
    )


#: name -> (programs run in order, memory written before them).
SCENARIOS = {
    # The base steps by 2**40: the core masks every address to 0x8000.
    # A trigger at another address and a second process's trigger at
    # the trained address follow.
    "add-2**40": (
        [
            _flushed_loop("trainer", "li r2, 0x8000",
                          "add r2, r2, 0x10000000000"),
            _flushed_loop("trigger", "li r2, 0x9000", "nop",
                          iterations=1),
            _flushed_loop("other", "li r2, 0x8000", "nop",
                          iterations=1, pid=1),
        ],
        {(0, 0x8000): 7, (0, 0x9000): 9, (1, 0x8000): 11},
    ),
    # li keeps -0x1000 as a 64-bit word; the address wraps to 2**40 - 0x1000.
    "negative-li": (
        [_flushed_loop("negative", "li r2, -0x1000", "nop")],
        {},
    ),
    # 0x100 - 0x200 wraps, and each step takes 2**40 more away.
    "sub-below-zero": (
        [_flushed_loop(
            "below-zero",
            "li r3, 0x100\n        sub r2, r3, 0x200",
            "sub r2, r2, 0x10000000000",
        )],
        {},
    ),
    # The core shifts by the count modulo 64: shl 64 and shr 128 keep r2.
    "shift-by-64": (
        [
            _flushed_loop(
                "shl", "li r3, 0x8000\n        shl r2, r3, 64",
                "shl r2, r2, 64",
            ),
            _flushed_loop(
                "shr", "li r3, 0x8040\n        shr r2, r3, 64",
                "shr r2, r2, 128",
            ),
        ],
        {(0, 0x8000): 5},
    ),
}


def _committed(load_events):
    """The core's retired load instances, in program order.

    A load that completed under a value prediction and was then
    squashed by an older misprediction left an event of its own; drop
    it at the squashing load's event, which is recorded after the
    squash.
    """
    kept = []
    for event in load_events:
        if event.prediction_correct is False:
            kept = [older for older in kept if older.seq < event.seq]
        kept.append(event)
    return sorted(kept, key=lambda event: event.seq)


@pytest.mark.parametrize("index_function", [PC_INDEX, DATA_ADDRESS_INDEX],
                         ids=lambda function: function.describe())
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_analyzer_reports_the_cores_addresses_and_outcomes(
    scenario, index_function
):
    programs, values = SCENARIOS[scenario]
    memory = MemorySystem(deterministic_memory_config())
    for (pid, addr), value in values.items():
        memory.write_value(pid, addr, value)
    core = Core(memory, LastValuePredictor(
        confidence_threshold=4, index_function=index_function,
    ))
    machine = VpsAbstractMachine(
        index_function=index_function, confidence_threshold=4,
    )
    outcomes = []
    for program in programs:
        dynamic = _committed(core.run(program).load_events)
        static = machine.execute(program, values)
        assert [event.pc for event in static] == [
            event.pc for event in dynamic
        ]
        for predicted, observed in zip(static, dynamic):
            assert not observed.l1_hit
            assert predicted.addr == observed.addr, program.name
            assert predicted.outcome is _OUTCOME[
                (observed.predicted, observed.prediction_correct)
            ], (program.name, observed)
            outcomes.append(predicted.outcome)
    # Every scenario trains an entry to a correct prediction.
    assert TriggerOutcome.CORRECT in outcomes


#: The pipeline property's steps plus register-based loads, wrapping
#: ``li`` immediates and every ALU op with shift counts past 64.
_WIDE = st.integers(-(2 ** 64), 2 ** 64)
_ADDRESSED_STEP = st.one_of(
    _STEP,
    st.tuples(st.just("li"), _REG, _WIDE),
    st.tuples(st.just("alui"), st.sampled_from(list(AluOp)), _REG, _REG,
              st.integers(0, 130)),
    st.tuples(st.just("load-at"), _REG, _REG, st.integers(0, 0x3000)),
)


@given(
    seeds=st.lists(_WIDE, min_size=7, max_size=7),
    steps=st.lists(_ADDRESSED_STEP, min_size=1, max_size=30),
    loop_at=st.integers(0, 25),
    loop_len=st.integers(0, 6),
    loop_count=st.integers(1, 3),
)
@settings(**_common)
def test_every_resolved_address_is_the_cores(
    seeds, steps, loop_at, loop_len, loop_count
):
    # Registers r1..r7 start from wide constants, and the program ends
    # by loading through each of them, so every register's final value
    # is used as an address.
    setup = [("li", reg, seed) for reg, seed in enumerate(seeds, start=1)]
    probes = [("load-at", 8, reg, 0) for reg in range(1, 8)]
    program = _build_program(
        setup + steps + probes,
        (loop_at + len(setup), loop_len, loop_count),
    )
    core = Core(
        MemorySystem(deterministic_memory_config()),
        LastValuePredictor(confidence_threshold=1),
    )
    dynamic = _committed(core.run(program).load_events)
    static = analyze_taint(program).loads
    replayed = VpsAbstractMachine(index_function=DATA_ADDRESS_INDEX).execute(
        program, {},
    )
    assert [load.pc for load in static] == [event.pc for event in dynamic]
    for load, event, observed in zip(static, replayed, dynamic):
        assert event.addr == load.addr
        if load.addr is not None:
            assert load.addr == observed.addr, program.listing()
