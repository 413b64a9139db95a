"""Property-based equivalence: OoO core vs. reference executor.

The out-of-order core speculates on load values, squashes, replays,
and forwards stores to loads — none of which may ever change
*architectural* results.  Hypothesis generates random straight-line
programs (with loops) and checks that final registers and memory match
the in-order reference executor exactly, with value prediction both
off and aggressively on (confidence 1 maximises mispredictions and
thus squash coverage).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.isa.builder import ProgramBuilder
from repro.isa.instructions import AluOp
from repro.memory.hierarchy import MemorySystem
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import Core
from repro.pipeline.reference import ReferenceExecutor
from repro.vp.lvp import LastValuePredictor
from repro.vp.nopred import NoPredictor

from tests.conftest import deterministic_memory_config

#: A handful of addresses so stores and loads collide frequently,
#: exercising forwarding and speculation on freshly written values.
ADDRESSES = [0x1000, 0x1008, 0x2000, 0x2040, 0x3000]

_REG = st.integers(min_value=1, max_value=7)
_ADDR = st.sampled_from(ADDRESSES)
_ALU = st.sampled_from([AluOp.ADD, AluOp.SUB, AluOp.XOR, AluOp.MUL, AluOp.SHL])

_STEP = st.one_of(
    st.tuples(st.just("li"), _REG, st.integers(0, 255)),
    st.tuples(st.just("alu"), _ALU, _REG, _REG, _REG),
    st.tuples(st.just("alui"), _ALU, _REG, _REG, st.integers(0, 15)),
    st.tuples(st.just("load"), _REG, _ADDR),
    st.tuples(st.just("store"), _REG, _ADDR),
    st.tuples(st.just("flush"), _ADDR),
    st.tuples(st.just("fence")),
    st.tuples(st.just("nop")),
)


def _build_program(steps, loop_spec):
    builder = ProgramBuilder("prop", pid=1)
    loop_at, loop_len, loop_count = loop_spec

    def emit(step):
        kind = step[0]
        if kind == "li":
            builder.li(step[1], step[2])
        elif kind == "alu":
            builder.alu(step[1], step[2], step[3], src2=step[4])
        elif kind == "alui":
            builder.alu(step[1], step[2], step[3], imm=step[4])
        elif kind == "load":
            builder.load(step[1], imm=step[2])
        elif kind == "load-at":
            builder.load(step[1], base=step[2], imm=step[3])
        elif kind == "store":
            builder.store(step[1], imm=step[2])
        elif kind == "flush":
            builder.flush(imm=step[1])
        elif kind == "fence":
            builder.fence()
        else:
            builder.nop()

    index = 0
    while index < len(steps):
        if index == loop_at and loop_len > 0:
            body = steps[index:index + loop_len]
            if body:
                with builder.loop(loop_count):
                    for step in body:
                        emit(step)
                index += loop_len
                continue
        emit(steps[index])
        index += 1
    return builder.build()


def _compare(program, predictor_factory, core_config=None):
    core_memory = MemorySystem(deterministic_memory_config())
    reference_memory = MemorySystem(deterministic_memory_config())
    core = Core(core_memory, predictor_factory(), core_config or CoreConfig())
    core_result = core.run(program)

    reference = ReferenceExecutor(reference_memory)
    reference_regs, tainted = reference.run(program)

    for reg in range(32):
        if reg in tainted:
            continue
        core_value = core_result.registers.get(reg, 0)
        assert core_value == reference_regs[reg], (
            f"register r{reg}: core={core_value:#x} "
            f"reference={reference_regs[reg]:#x}\n{program.listing()}"
        )
    for addr in ADDRESSES:
        assert core_memory.read_value(1, addr) == \
            reference_memory.read_value(1, addr), (
            f"memory {addr:#x} differs\n{program.listing()}"
        )


_common = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestArchitecturalEquivalence:
    @given(
        steps=st.lists(_STEP, min_size=1, max_size=30),
        loop_at=st.integers(0, 25),
        loop_len=st.integers(0, 6),
        loop_count=st.integers(1, 3),
    )
    @settings(**_common)
    def test_no_predictor(self, steps, loop_at, loop_len, loop_count):
        program = _build_program(steps, (loop_at, loop_len, loop_count))
        _compare(program, NoPredictor)

    @given(
        steps=st.lists(_STEP, min_size=1, max_size=30),
        loop_at=st.integers(0, 25),
        loop_len=st.integers(0, 6),
        loop_count=st.integers(1, 3),
    )
    @settings(**_common)
    def test_aggressive_value_prediction(
        self, steps, loop_at, loop_len, loop_count
    ):
        # Confidence 1 predicts after a single observation: maximal
        # misprediction and squash pressure.
        program = _build_program(steps, (loop_at, loop_len, loop_count))
        _compare(
            program, lambda: LastValuePredictor(confidence_threshold=1)
        )

    @given(
        steps=st.lists(_STEP, min_size=1, max_size=25),
        loop_at=st.integers(0, 20),
        loop_len=st.integers(0, 5),
        loop_count=st.integers(1, 3),
    )
    @settings(**_common)
    def test_prediction_with_delayed_fills(
        self, steps, loop_at, loop_len, loop_count
    ):
        # The D-type defense must never change architectural results.
        program = _build_program(steps, (loop_at, loop_len, loop_count))
        _compare(
            program,
            lambda: LastValuePredictor(confidence_threshold=1),
            CoreConfig(delay_speculative_fills=True),
        )

    @given(
        steps=st.lists(_STEP, min_size=1, max_size=25),
        loop_at=st.integers(0, 20),
        loop_len=st.integers(0, 5),
        loop_count=st.integers(1, 3),
    )
    @settings(**_common)
    def test_prediction_with_invisispec(
        self, steps, loop_at, loop_len, loop_count
    ):
        program = _build_program(steps, (loop_at, loop_len, loop_count))
        _compare(
            program,
            lambda: LastValuePredictor(confidence_threshold=1),
            CoreConfig(invisispec=True),
        )

    @given(
        steps=st.lists(_STEP, min_size=1, max_size=20),
        rob=st.sampled_from([8, 16, 128]),
        width=st.sampled_from([1, 2, 4]),
    )
    @settings(**_common)
    def test_equivalence_across_machine_widths(self, steps, rob, width):
        program = _build_program(steps, (0, 0, 1))
        _compare(
            program,
            lambda: LastValuePredictor(confidence_threshold=1),
            CoreConfig(
                rob_size=rob, fetch_width=width, issue_width=width,
                commit_width=width,
            ),
        )
