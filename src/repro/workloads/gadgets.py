"""Reusable attack-program gadgets.

These build the proof-of-concept code shapes of Figures 3 and 4 with
the :class:`~repro.isa.builder.ProgramBuilder`:

* train loops — repeated ``flush; load`` at a pinned PC so a
  PC-indexed VPS accumulates confidence at a chosen index;
* timed triggers — an RDTSC-bracketed ``load + dependent chain``
  window (the timing-window channel);
* encode triggers — a trigger load whose (possibly speculative) value
  indexes a probe array, Spectre-style (the persistent channel);
* probe loops — RDTSC-bracketed reloads of probe lines
  (FLUSH+RELOAD's reload half).

PC collisions between programs are what make cross-process attacks
work: every gadget takes a ``load_pc`` and pins its interesting load
there, reproducing the "``nop(); // pad to map to sender's index``"
padding of Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import AttackError
from repro.isa.builder import ProgramBuilder
from repro.isa.program import Program
from repro.perf.memo import memoize_program

#: Register conventions used by the gadgets.
REG_LOADED = 3     #: destination of the interesting load
REG_CHAIN = 30     #: accumulator of the dependent chain
REG_T1 = 9         #: first timestamp
REG_T2 = 10        #: second timestamp
REG_ENCODED = 6    #: destination of the encode load
REG_SHIFTED = 4    #: value << stride_shift


@dataclass(frozen=True)
class Layout:
    """Address and PC plan shared by the attack programs.

    Attributes:
        collide_pc: The PC at which colliding loads are pinned — the
            shared Value Prediction System index of the attack.
        alt_pc: A second, non-colliding load PC (used by secret-index
            senders for their secret = 0 path).
        receiver_base_pc / sender_base_pc / probe_base_pc: Distinct
            code regions so only deliberately pinned loads collide.
        receiver_known_addr: The receiver's known data ("arr3").
        sender_known_addr: The sender's known data ("arr1").
        secret_addr / secret_addr2: Sender-private secret locations.
        probe_base / probe_stride: The FLUSH+RELOAD probe array
            ("arr2"); stride 512 bytes as in Figure 4.
        probe_lines: Size of the probe array in lines (paper: 256).
    """

    collide_pc: int = 0x1000
    alt_pc: int = 0x1800
    receiver_base_pc: int = 0x200
    sender_base_pc: int = 0x400
    probe_base_pc: int = 0x10000
    receiver_known_addr: int = 0x110000
    sender_known_addr: int = 0x120000
    secret_addr: int = 0x130000
    secret_addr2: int = 0x140000
    probe_base: int = 0x600000
    probe_stride: int = 512
    probe_lines: int = 256
    receiver_pid: int = 2
    sender_pid: int = 1

    @property
    def probe_stride_shift(self) -> int:
        """log2 of the probe stride (for the ``x*512`` address math)."""
        shift = self.probe_stride.bit_length() - 1
        if 1 << shift != self.probe_stride:
            raise AttackError(
                f"probe stride {self.probe_stride} must be a power of two"
            )
        return shift

    def probe_line_addr(self, index: int) -> int:
        """Virtual address of probe line ``index``."""
        return self.probe_base + index * self.probe_stride


#: Instructions in a train-loop body before its load (flush, fence).
_TRAIN_PREFIX_INSTRUCTIONS = 2

# Every factory below is pure — same arguments, same Program — and
# Programs are immutable once built, so the factories are memoized.
# Trials of a cell (and cells sharing a layout) rebuild identical
# train/trigger/probe programs thousands of times; the cache turns
# that into a dictionary lookup and, because the cached Program keeps
# its expanded dynamic trace, it doubles as a decoded-uop cache.


@memoize_program()
def train_program(
    name: str,
    pid: int,
    base_pc: int,
    load_pc: int,
    addr: int,
    count: int,
    tag: str = "train-load",
    secret: bool = False,
) -> Program:
    """A train loop: ``count`` times ``flush(addr); fence; load addr``.

    The load is pinned at ``load_pc`` on *every* iteration (a true
    loop, not an unrolled copy), which is how the predictor's
    confidence accumulates at one index.  The flush forces each
    iteration to miss, engaging the load-based VPS per the threat
    model; the trailing fence keeps iterations from overlapping so the
    training count is exact.  ``secret=True`` marks the trained load
    as a taint source for the static analyzer.
    """
    if count < 1:
        raise AttackError(f"train count must be >= 1, got {count}")
    builder = ProgramBuilder(name, pid=pid, base_pc=base_pc)
    builder.pin_pc(load_pc - _TRAIN_PREFIX_INSTRUCTIONS * 4)
    with builder.loop(count):
        builder.flush(imm=addr)
        builder.fence()
        builder.load(REG_LOADED, imm=addr, tag=tag, secret=secret)
        builder.fence()
    return builder.build()


@memoize_program()
def timed_trigger_program(
    name: str,
    pid: int,
    base_pc: int,
    load_pc: int,
    addr: int,
    chain_length: int,
    tag: str = "trigger-load",
    secret: bool = False,
) -> Program:
    """An RDTSC-bracketed trigger: the timing-window channel.

    Shape (Figure 3 receiver, lines 15-21)::

        flush(addr); fence
        t1 = rdtsc; fence
        r = load addr          # pinned at load_pc
        dependent chain (r)
        fence; t2 = rdtsc

    The measurement is ``t2 - t1``: a correct prediction overlaps the
    chain with the miss (fast); no prediction serialises them
    (medium); a misprediction adds the squash penalty and re-execution
    (slow).
    """
    builder = ProgramBuilder(name, pid=pid, base_pc=base_pc)
    builder.flush(imm=addr)
    builder.fence()
    builder.rdtsc(REG_T1, tag="t1")
    builder.fence()
    builder.pin_pc(load_pc)
    builder.load(REG_LOADED, imm=addr, tag=tag, secret=secret)
    builder.dependent_chain(chain_length, dst=REG_CHAIN, src=REG_LOADED)
    builder.fence()
    builder.rdtsc(REG_T2, tag="t2")
    return builder.build()


@memoize_program()
def plain_trigger_program(
    name: str,
    pid: int,
    base_pc: int,
    load_pc: int,
    addr: int,
    chain_length: int,
    tag: str = "trigger-load",
    secret: bool = False,
) -> Program:
    """A trigger without RDTSC, for internal-interference attacks.

    The receiver observes the *run time* of this (victim) program —
    per the threat model, two processes need not share the predictor
    "as long as the receiver can observe timing differences in the
    execution of the sender".
    """
    builder = ProgramBuilder(name, pid=pid, base_pc=base_pc)
    builder.flush(imm=addr)
    builder.fence()
    builder.pin_pc(load_pc)
    builder.load(REG_LOADED, imm=addr, tag=tag, secret=secret)
    builder.dependent_chain(chain_length, dst=REG_CHAIN, src=REG_LOADED)
    builder.fence()
    return builder.build()


@memoize_program()
def encode_trigger_program(
    name: str,
    pid: int,
    base_pc: int,
    load_pc: int,
    addr: int,
    layout: Layout,
    flush_lines: Sequence[int],
    tag: str = "trigger-load",
    secret: bool = False,
) -> Program:
    """A trigger whose value transiently indexes the probe array.

    Shape (Figure 4 receiver, lines 11-14)::

        flush(probe lines); flush(addr); fence
        x = load addr            # pinned at load_pc; may be predicted
        y = load probe[x * 512]  # executes speculatively

    With value prediction, the encode load runs with the *predicted*
    ``x`` long before the trigger's data returns; the cache fill it
    performs survives even if the prediction later squashes — the
    persistent channel.
    """
    builder = ProgramBuilder(name, pid=pid, base_pc=base_pc)
    for line in flush_lines:
        builder.flush(imm=layout.probe_line_addr(line))
    builder.flush(imm=addr)
    builder.fence()
    builder.pin_pc(load_pc)
    builder.load(REG_LOADED, imm=addr, tag=tag, secret=secret)
    builder.shl(REG_SHIFTED, REG_LOADED, layout.probe_stride_shift)
    builder.load(
        REG_ENCODED, base=REG_SHIFTED, imm=layout.probe_base, tag="encode-load"
    )
    builder.fence()
    return builder.build()


@memoize_program()
def probe_program(
    name: str,
    pid: int,
    base_pc: int,
    layout: Layout,
    lines: Sequence[int],
) -> Program:
    """The reload half of FLUSH+RELOAD over the given probe lines.

    Every reload is bracketed by RDTSC pairs; use
    :func:`repro.core.channels.probe_latencies_from_rdtsc` on the run
    result to recover per-line latencies (Figure 4, lines 18-24).
    """
    if not lines:
        raise AttackError("probe requires at least one line")
    builder = ProgramBuilder(name, pid=pid, base_pc=base_pc)
    for line in lines:
        builder.fence()
        builder.rdtsc(REG_T1, tag="probe-t1")
        builder.fence()
        builder.load(REG_LOADED, imm=layout.probe_line_addr(line), tag="probe-load")
        builder.fence()
        builder.rdtsc(REG_T2, tag="probe-t2")
    return builder.build()


@memoize_program()
def idle_program(name: str, pid: int, base_pc: int, nops: int = 8) -> Program:
    """A do-nothing filler program (the sender's secret = 0 path)."""
    builder = ProgramBuilder(name, pid=pid, base_pc=base_pc)
    for _ in range(max(1, nops)):
        builder.nop()
    return builder.build()


@memoize_program()
def mul_burst_trigger_program(
    name: str,
    pid: int,
    base_pc: int,
    load_pc: int,
    addr: int,
    burst: int = 64,
    tag: str = "trigger-load",
    secret: bool = False,
) -> Program:
    """A trigger whose dependents saturate the multiplier port.

    The trigger load feeds ``burst`` *independent* multiplies (all
    sourcing the loaded register, none sourcing each other), so once a
    value — predicted or actual — arrives, they issue back-to-back and
    monopolise the core's single multiplier port for ``burst`` cycles.

    This is the sender side of the volatile (port-contention) channel:
    under a prediction the burst fires early, inside the miss window;
    a misprediction replays it, doubling the pressure a co-running
    observer feels (cf. SMotherSpectre-style contention channels,
    the paper's reference [1]).
    """
    if burst < 1:
        raise AttackError(f"burst must be >= 1, got {burst}")
    builder = ProgramBuilder(name, pid=pid, base_pc=base_pc)
    builder.flush(imm=addr)
    builder.fence()
    builder.pin_pc(load_pc)
    builder.load(REG_LOADED, imm=addr, tag=tag, secret=secret)
    for index in range(burst):
        destination = 8 + (index % 20)
        builder.mul(destination, REG_LOADED, imm=3, tag="mul-burst")
    builder.fence()
    return builder.build()


@memoize_program()
def mul_probe_program(
    name: str,
    pid: int,
    base_pc: int,
    burst: int = 480,
) -> Program:
    """The observer side of the volatile channel.

    An RDTSC-bracketed stream of independent multiplies long enough to
    span the victim's transient window *and* any squash-and-replay
    re-execution.  With an otherwise idle machine it issues one
    multiply per cycle; every cycle the victim steals the multiplier
    port adds one cycle to the measured window.
    """
    if burst < 1:
        raise AttackError(f"burst must be >= 1, got {burst}")
    builder = ProgramBuilder(name, pid=pid, base_pc=base_pc)
    builder.li(4, 3)
    builder.fence()
    builder.rdtsc(REG_T1, tag="t1")
    builder.fence()
    for index in range(burst):
        destination = 8 + (index % 20)
        builder.mul(destination, 4, imm=5, tag="probe-mul")
    builder.fence()
    builder.rdtsc(REG_T2, tag="t2")
    return builder.build()
