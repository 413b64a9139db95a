"""Compile powm iterations into victim programs for the simulator.

The RSA case study (Figures 6 and 7) runs the victim's modular
exponentiation on the simulated core, one loop iteration at a time.
Each iteration's program contains:

* the *unconditional* work — limb loads of the operands feeding the
  square and multiply, plus multiply ALU traffic — identical for both
  bit values (the FLUSH+RELOAD hardening), and
* the *conditional swap block* (Figure 6 lines 16-20): loads/stores of
  the ``tp``/``rp``/``xp`` pointer variables, emitted **only when the
  exponent bit is 1**, with the ``tp`` load pinned at a fixed PC.

That pinned load is the attack surface: the receiver's Train + Test
instance collides with its VPS index, so whether the entry was
touched during an iteration reveals the bit.  The swap block flushes
the pointer line first, standing in for the attacker-driven cache
thrashing the threat model allows ("the miss ... can be forced by a
malicious attacker that invalidates or flushes the cache").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.builder import ProgramBuilder
from repro.isa.instructions import AluOp
from repro.isa.program import Program
from repro.errors import CryptoError


@dataclass(frozen=True)
class RsaLayout:
    """Address/PC plan for the RSA victim and its attacker.

    Attributes:
        swap_pc: PC of the victim's conditional ``tp`` load — the
            predictor index the attacker collides with.
        victim_base_pc: Base of the victim's per-iteration code.
        attacker_base_pc: Base of the attacker's train/trigger code.
        pointer_addr: Address of the ``tp`` pointer variable.
        limb_base: Base address of the victim's operand limbs.
        attacker_addr: The attacker's own known-data address.
        victim_pid / attacker_pid: Process identifiers.
    """

    swap_pc: int = 0x2000
    victim_base_pc: int = 0x800
    attacker_base_pc: int = 0x200
    pointer_addr: int = 0x300000
    limb_base: int = 0x310000
    attacker_addr: int = 0x320000
    victim_pid: int = 1
    attacker_pid: int = 2


def victim_iteration_program(
    e_bit: int,
    layout: RsaLayout,
    work_loads: int = 8,
    work_muls: int = 6,
    iteration: int = 0,
) -> Program:
    """The victim's program for one square-and-multiply iteration.

    Args:
        e_bit: This iteration's exponent bit (drives the swap block).
        layout: Address/PC plan.
        work_loads: Limb loads modelling the square+multiply operand
            traffic (unconditional, identical for both bit values).
        work_muls: Dependent multiplies modelling the arithmetic.
        iteration: Iteration number (names the program in traces).

    Raises:
        CryptoError: If ``e_bit`` is not 0 or 1.
    """
    if e_bit not in (0, 1):
        raise CryptoError(f"e_bit must be 0 or 1, got {e_bit}")
    builder = ProgramBuilder(
        f"powm-iter{iteration}-bit{e_bit}",
        pid=layout.victim_pid,
        base_pc=layout.victim_base_pc,
    )
    # Unconditional square + multiply work (Figure 6 lines 9-15):
    # stream the operand limbs and feed a multiply chain.
    for index in range(work_loads):
        builder.load(4, imm=layout.limb_base + index * 64, tag="limb-load")
    builder.li(5, 3)
    for _ in range(work_muls):
        builder.alu(AluOp.MUL, 5, 5, src2=4, tag="mul-work")
    builder.fence()
    if e_bit:
        # The conditional swap (Figure 6 lines 16-20).  The pointer
        # line is cold (attacker-forced eviction), so the load misses
        # and touches the Value Prediction System at swap_pc.
        builder.flush(imm=layout.pointer_addr)
        builder.fence()
        builder.pin_pc(layout.swap_pc)
        builder.load(7, imm=layout.pointer_addr, tag="swap-load")  # tp = rp
        builder.store(7, imm=layout.pointer_addr + 8)              # rp = xp
        builder.fence()
    return builder.build()
