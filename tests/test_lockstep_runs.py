"""Dependent ALU runs: the lockstep engine's closed-form run solve.

``LockstepMachine`` schedules a whole dependent ALU run (a serial chain
of immediate-form ops into one register) as one ``[K x lanes]`` solve
per block instead of one pass per column.  These properties pin that
solve to the scalar reference: batched and scalar trial streams are
equal for generated runs, core shapes, defenses, channels and lane
widths.

Table II variants emit only immediate-ADD chains, so a test-only
variant (:class:`_RunProbe`) measures a generated run of every ALU op,
behind a register-form head, in both channels.
"""

import pytest

pytest.importorskip("numpy")

from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core.attack import AttackConfig, AttackRunner  # noqa: E402
from repro.core.channels import (  # noqa: E402
    ChannelType, probe_latencies_from_rdtsc,
)
from repro.core.model import AttackCategory  # noqa: E402
from repro.core.variants import ALL_VARIANTS, AttackVariant  # noqa: E402
from repro.isa.builder import ProgramBuilder  # noqa: E402
from repro.isa.instructions import AluOp  # noqa: E402
from repro.pipeline.config import CoreConfig  # noqa: E402
from repro.pipeline.core import _alu_compute  # noqa: E402
from repro.sim import clear_fallback_journal, fallback_journal  # noqa: E402
from repro.workloads import gadgets  # noqa: E402
from tests.test_sim_backend import _defense  # noqa: E402

TIMING = ChannelType.TIMING_WINDOW
PERSISTENT = ChannelType.PERSISTENT

#: Registers of the generated run: its destination, a second run's
#: destination, and the constant a register-form head reads.
REG_RUN = 30
REG_NEXT = 31
REG_CONST = 12

#: The trained guess; the unmapped hypothesis loads a different value,
#: so its trigger mispredicts and the run executes in a squash window.
GUESS = 5
OTHER = 60

_N_RUNS = 8

#: The guards a run trips when it outlasts a per-lane DRAM miss.
_STRADDLES = {
    "LaneDivergence: squash window edge straddles lanes",
    "LaneDivergence: prediction verification straddles a consumer's issue",
}


class _RunProbe(AttackVariant):
    """Train + Hit with a generated dependent run behind the trigger.

    The measured window is ``flush; fence; rdtsc; load; <run>; fence;
    rdtsc`` on the timing channel.  On the persistent channel the run's
    value, masked and shifted, indexes the probe array, so the folded
    value of a transient run decides which line the squash leaves hot.
    """

    name = "Run Probe"
    category = AttackCategory.TRAIN_HIT
    supported_channels = (TIMING, PERSISTENT)
    num_phases = 2

    def __init__(self, head, tail, second):
        #: ``(alu_op, src1, src2, imm)`` of the run's first op.
        self.head = head
        #: ``(alu_op, imm)`` per later op of the run.
        self.tail = tuple(tail)
        #: Optional ``(alu_op, imm)`` head of a second run reading the
        #: first one's register.
        self.second = second
        self._programs = {}

    def _ops(self, channel, layout):
        """The program's ALU entries as ``(alu_op, dst, src1, src2, imm)``."""
        op, src1, src2, imm = self.head
        ops = [(op, REG_RUN, src1, src2, imm)]
        ops += [(op, REG_RUN, REG_RUN, None, imm) for op, imm in self.tail]
        dest = REG_RUN
        if self.second is not None:
            op, imm = self.second
            ops.append((op, REG_NEXT, REG_RUN, None, imm))
            dest = REG_NEXT
        if channel is PERSISTENT:
            ops.append((AluOp.AND, dest, dest, None, layout.probe_lines - 1))
            ops.append(
                (AluOp.SHL, dest, dest, None, layout.probe_stride_shift)
            )
        return ops, dest

    def line_of(self, loaded, layout):
        """The probe line the persistent window encodes for a value."""
        regs = {gadgets.REG_LOADED: loaded, REG_CONST: 7}
        for op, dst, src1, src2, imm in self._ops(PERSISTENT, layout)[0]:
            rhs = regs.get(src2, 0) if src2 is not None else imm
            regs[dst] = _alu_compute(op, regs.get(src1, 0), rhs)
        return regs[dst] >> layout.probe_stride_shift

    def program(self, channel, layout):
        if channel in self._programs:
            return self._programs[channel]
        builder = ProgramBuilder(
            "run-trigger", pid=layout.sender_pid,
            base_pc=layout.sender_base_pc,
        )
        builder.li(REG_CONST, 7)
        lines = sorted({self.line_of(GUESS, layout),
                        self.line_of(OTHER, layout)})
        if channel is PERSISTENT:
            for line in lines:
                builder.flush(imm=layout.probe_line_addr(line))
        builder.flush(imm=layout.secret_addr)
        builder.fence()
        if channel is TIMING:
            builder.rdtsc(gadgets.REG_T1)
        builder.pin_pc(layout.collide_pc)
        builder.load(gadgets.REG_LOADED, imm=layout.secret_addr)
        ops, dest = self._ops(channel, layout)
        for op, dst, src1, src2, imm in ops:
            builder.alu(op, dst, src1, src2=src2, imm=imm)
        if channel is PERSISTENT:
            builder.load(gadgets.REG_ENCODED, base=dest,
                         imm=layout.probe_base)
        builder.fence()
        if channel is TIMING:
            builder.rdtsc(gadgets.REG_T2)
        self._programs[channel] = builder.build()
        return self._programs[channel]

    def run_prologue(self, env, mapped):
        layout = env.layout
        env.write_receiver_value(layout.receiver_known_addr, GUESS)
        env.write_sender_value(layout.secret_addr, GUESS if mapped else OTHER)
        env.core.run(gadgets.train_program(
            "run-train", layout.receiver_pid, layout.receiver_base_pc,
            layout.collide_pc, layout.receiver_known_addr, env.confidence,
        ))

    def run_measured(self, env, mapped):
        layout = env.layout
        result = env.core.run(self.program(env.channel, layout))
        if env.channel is TIMING:
            return float(result.rdtsc_delta())
        # Reload both candidate lines: the squash window leaves the
        # guess's line hot, the refetch the loaded value's.  Weighting
        # the second keeps the two outcomes apart in one float.
        lines = [self.line_of(GUESS, layout), self.line_of(OTHER, layout)]
        probe = env.core.run(gadgets.probe_program(
            "probe", layout.receiver_pid, layout.probe_base_pc, layout, lines,
        ))
        guess, other = probe_latencies_from_rdtsc(probe.rdtsc_values, 2)
        return float(guess + other + other)


def _stream(variant, backend, channel, defense, core_config, chain_length):
    runner = AttackRunner(variant, AttackConfig(
        n_runs=_N_RUNS, channel=channel, predictor="lvp", seed=3,
        defense=_defense(defense), core_config=core_config,
        chain_length=chain_length, backend=backend,
    ))
    return [
        (mapped.measurement, mapped.sim_cycles,
         unmapped.measurement, unmapped.sim_cycles)
        for mapped, unmapped in runner.backend.run_pairs(runner, 0, _N_RUNS)
    ]


_IMM = st.one_of(st.integers(-8, 70), st.integers(-(2 ** 63), 2 ** 64 - 1))
_OP = st.sampled_from(list(AluOp))


@st.composite
def _run_probes(draw, length):
    """A :class:`_RunProbe` whose first run has ``length`` ops."""
    sources = st.sampled_from((gadgets.REG_LOADED, REG_CONST))
    register_form = draw(st.booleans())
    head = (
        draw(_OP), draw(sources),
        draw(sources) if register_form else None, draw(_IMM),
    )
    # Long runs from a few repeated segments; repeated ADDs fold.
    segments = draw(st.lists(
        st.tuples(_OP, _IMM, st.integers(1, 80)), max_size=6,
    ))
    tail = [(op, imm) for op, imm, count in segments for _ in range(count)]
    tail = (tail + [(AluOp.ADD, 1)] * length)[:length - 1]
    second = draw(st.none() | st.tuples(_OP, _IMM))
    return _RunProbe(head, tail, second)


@st.composite
def _cases(draw):
    length = draw(st.integers(1, 300))
    channel = draw(st.sampled_from((TIMING, PERSISTENT)))
    if draw(st.booleans()):
        variant = draw(st.sampled_from([
            v for v in ALL_VARIANTS if channel in v.supported_channels
        ]))
    else:
        variant = draw(_run_probes(length))
    core_config = None
    if draw(st.booleans()):
        core_config = CoreConfig(
            fetch_width=draw(st.integers(1, 8)),
            commit_width=draw(st.integers(1, 8)),
            rob_size=draw(st.integers(8, 128)),
            alu_latency=draw(st.integers(1, 3)),
            mul_latency=draw(st.integers(1, 6)),
        )
    return dict(
        variant=variant, channel=channel, length=length,
        core_config=core_config,
        defense=draw(st.sampled_from(("none", "D", "R", "A"))),
        lanes=draw(st.sampled_from((1, 7, 128))),
    )


def _probe(length, ops, head=(AluOp.ADD, gadgets.REG_LOADED, None, 1)):
    tail = [ops[i % len(ops)] for i in range(length - 1)]
    return _RunProbe(head, tail, None)


_TINY_ROB = CoreConfig(fetch_width=1, commit_width=1, rob_size=8)
_NARROW = CoreConfig(fetch_width=2, commit_width=3, rob_size=24,
                     alu_latency=2, mul_latency=5)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_cases())
# Fixed shapes where the run splits into ROB-sized blocks, ROB gates
# land inside it and the width recurrences bind.
@example(case=dict(
    variant=_probe(60, [(AluOp.ADD, 1)]), channel=TIMING, length=60,
    core_config=_TINY_ROB, defense="none", lanes=7,
))
@example(case=dict(
    variant=_probe(90, [(AluOp.MUL, 3), (AluOp.XOR, 9), (AluOp.SHR, 1)],
                   head=(AluOp.SUB, REG_CONST, gadgets.REG_LOADED, 0)),
    channel=PERSISTENT, length=90, core_config=_NARROW, defense="D",
    lanes=128,
))
@example(case=dict(
    variant=ALL_VARIANTS[0], channel=TIMING, length=200,
    core_config=_NARROW, defense="none", lanes=1,
))
@example(case=dict(
    variant=_probe(160, [(AluOp.SHL, 1), (AluOp.ADD, -3)]),
    channel=TIMING, length=160, core_config=None, defense="D", lanes=7,
))
def test_alu_runs_match_scalar(case):
    """Scalar and batched trial streams are equal for generated runs.

    On the default core with defense none or D, Table II's chains must
    vectorize outright (an empty journal), so the identity cannot hold
    by falling back.  A generated run may outlast the trigger's DRAM
    miss, whose length differs per lane: then a row of the run issues
    before the squash, or before the verification, in some lanes only.
    Those two straddles are the only guards it may trip there.
    """
    import repro.sim.batched as batched_module

    variant, channel = case["variant"], case["channel"]
    if channel not in variant.supported_channels:
        return
    args = (channel, case["defense"], case["core_config"], case["length"])
    scalar = _stream(variant, "scalar", *args)
    clear_fallback_journal()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(batched_module, "CHUNK_LANES", case["lanes"])
        batched = _stream(variant, "batched", *args)
    assert batched == scalar
    if case["core_config"] is None and case["defense"] in ("none", "D"):
        reasons = {reason for _, reason in fallback_journal()}
        if isinstance(variant, _RunProbe):
            reasons -= _STRADDLES
        assert reasons == set()


def test_run_probe_vectorizes_its_runs():
    """The generated variant really runs its runs on the lanes: a long
    mixed run, in the main pass and in a squash window, on both
    channels, with an empty journal, and the hypotheses differ."""
    variant = _probe(
        # Bijections of the low byte, so the two hypotheses' values
        # stay on different probe lines.
        120, [(AluOp.MUL, 3), (AluOp.ADD, 2), (AluOp.ADD, -1),
              (AluOp.SHL, 1), (AluOp.SHR, 1), (AluOp.XOR, 0x55)],
        head=(AluOp.XOR, gadgets.REG_LOADED, REG_CONST, 0),
    )
    for channel in (TIMING, PERSISTENT):
        scalar = _stream(variant, "scalar", channel, "none", None, None)
        clear_fallback_journal()
        batched = _stream(variant, "batched", channel, "none", None, None)
        assert batched == scalar
        assert fallback_journal() == []
        mapped = {row[0] for row in scalar}
        unmapped = {row[2] for row in scalar}
        # A correct prediction and a squash give different windows.
        assert mapped != unmapped
