"""Instruction definitions for the mini ISA.

The attacks in the paper (Figures 3, 4 and 6) only require a small set
of primitives: loads/stores with base+offset addressing, simple ALU
operations, cache-line flushes, fences, a cycle-counter read
(``rdtscp``), and nops used to pad code so that a load's program
counter maps onto a chosen Value Prediction System (VPS) index.

Programs are straight-line: loops are unrolled by the
:class:`~repro.isa.builder.ProgramBuilder` and secret-dependent control
flow is resolved at program-construction time (the generated *trace*
differs with the secret, which is exactly the property the attacks
exploit).

Every instruction occupies :data:`INSTRUCTION_BYTES` bytes of the
instruction address space, so the *n*-th instruction of a program that
starts at ``base_pc`` has ``pc = base_pc + n * INSTRUCTION_BYTES``
unless explicitly pinned.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import IsaError

#: Size of one encoded instruction in bytes (used for PC arithmetic).
INSTRUCTION_BYTES = 4

#: Number of architectural integer registers.
NUM_REGISTERS = 32


class Opcode(enum.Enum):
    """Operation codes of the mini ISA."""

    NOP = "nop"
    LI = "li"          #: load immediate into a register
    ALU = "alu"        #: register/immediate ALU operation
    LOAD = "load"      #: load from [base + imm]
    STORE = "store"    #: store to [base + imm]
    FLUSH = "flush"    #: flush the cache line containing [base + imm]
    FENCE = "fence"    #: serialise: drain the pipeline before continuing
    RDTSC = "rdtsc"    #: read the cycle counter into a register
    HALT = "halt"      #: stop the program


class AluOp(enum.Enum):
    """ALU operations supported by :attr:`Opcode.ALU`."""

    ADD = "add"
    SUB = "sub"
    XOR = "xor"
    AND = "and"
    OR = "or"
    MUL = "mul"
    SHL = "shl"
    SHR = "shr"


#: ALU operations that use the long-latency multiplier port.
LONG_LATENCY_ALU_OPS = frozenset({AluOp.MUL})


def _check_register(reg: Optional[int], what: str, allow_none: bool = False) -> None:
    """Validate a register operand index."""
    if reg is None:
        if allow_none:
            return
        raise IsaError(f"{what} register is required")
    if not isinstance(reg, int) or isinstance(reg, bool):
        raise IsaError(f"{what} register must be an int, got {reg!r}")
    if not 0 <= reg < NUM_REGISTERS:
        raise IsaError(
            f"{what} register {reg} out of range 0..{NUM_REGISTERS - 1}"
        )


@dataclass(frozen=True)
class Instruction:
    """A single mini-ISA instruction.

    Attributes:
        op: The opcode.
        dst: Destination register (LI, ALU, LOAD, RDTSC).
        src1: First source register (ALU), or base register for memory
            operations (LOAD, STORE, FLUSH); ``None`` means base 0 so
            the effective address is just ``imm``.
        src2: Second source register (ALU register form), or the data
            register for STORE.
        imm: Immediate: the ALU immediate (when ``src2`` is ``None``),
            the LI constant, or the address offset for memory ops.
        alu_op: The ALU operation for :attr:`Opcode.ALU`.
        tag: Optional free-form annotation used by attack tooling to
            identify interesting instructions in traces (e.g.
            ``"trigger-load"``).
        secret: Marks a LOAD whose result is derived from a secret.
            Purely static metadata: the pipeline ignores it, but the
            static analyzer (:mod:`repro.analysis`) uses it as a taint
            source for secret-to-address and secret-to-timing-window
            flow detection.
    """

    op: Opcode
    dst: Optional[int] = None
    src1: Optional[int] = None
    src2: Optional[int] = None
    imm: int = 0
    alu_op: Optional[AluOp] = None
    tag: Optional[str] = None
    secret: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.op, Opcode):
            raise IsaError(f"op must be an Opcode, got {self.op!r}")
        if not isinstance(self.imm, int) or isinstance(self.imm, bool):
            raise IsaError(f"imm must be an int, got {self.imm!r}")
        if self.secret and self.op is not Opcode.LOAD:
            raise IsaError(
                f"only LOAD instructions can be marked secret, "
                f"got {self.op.value}"
            )
        validator = _VALIDATORS[self.op]
        validator(self)
        # Renaming asks for both on every dynamic instance; compute
        # them once (the dataclass is frozen, hence object.__setattr__).
        object.__setattr__(self, "_sources", self._operand_sources())
        writes = self.op in (Opcode.LI, Opcode.ALU, Opcode.LOAD, Opcode.RDTSC)
        object.__setattr__(self, "_destination", self.dst if writes else None)

    # ------------------------------------------------------------------
    # Operand classification helpers used by the pipeline for renaming.
    # ------------------------------------------------------------------
    @property
    def is_memory(self) -> bool:
        """True for operations that access the data memory hierarchy."""
        return self.op in (Opcode.LOAD, Opcode.STORE, Opcode.FLUSH)

    @property
    def is_load(self) -> bool:
        """True for load operations."""
        return self.op is Opcode.LOAD

    @property
    def is_store(self) -> bool:
        """True for store operations."""
        return self.op is Opcode.STORE

    @property
    def is_serialising(self) -> bool:
        """True for instructions that drain the pipeline before issue."""
        return self.op in (Opcode.FENCE, Opcode.RDTSC)

    def source_registers(self) -> Tuple[int, ...]:
        """Registers read by this instruction."""
        return self._sources  # type: ignore[attr-defined]

    def destination_register(self) -> Optional[int]:
        """Register written by this instruction, or ``None``."""
        return self._destination  # type: ignore[attr-defined]

    def _operand_sources(self) -> Tuple[int, ...]:
        sources = []
        if self.op is Opcode.ALU:
            sources.append(self.src1)
            if self.src2 is not None:
                sources.append(self.src2)
        elif self.op in (Opcode.LOAD, Opcode.FLUSH):
            if self.src1 is not None:
                sources.append(self.src1)
        elif self.op is Opcode.STORE:
            if self.src1 is not None:
                sources.append(self.src1)
            sources.append(self.src2)
        return tuple(s for s in sources if s is not None)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = [self.op.value]
        if self.op is Opcode.ALU and self.alu_op is not None:
            parts[0] = self.alu_op.value
        if self.dst is not None:
            parts.append(f"r{self.dst}")
        if self.op in (Opcode.LOAD, Opcode.STORE, Opcode.FLUSH):
            base = f"r{self.src1}" if self.src1 is not None else ""
            addr = f"[{base}{'+' if base else ''}{self.imm:#x}]"
            if self.op is Opcode.STORE:
                parts.append(addr)
                parts.append(f"r{self.src2}")
            else:
                parts.append(addr)
        elif self.op is Opcode.ALU:
            parts.append(f"r{self.src1}")
            parts.append(f"r{self.src2}" if self.src2 is not None else f"{self.imm:#x}")
        elif self.op is Opcode.LI:
            parts.append(f"{self.imm:#x}")
        text = " ".join(str(p) for p in parts)
        if self.tag:
            text += f"  ; {self.tag}"
        return text


# ----------------------------------------------------------------------
# Per-opcode operand validation.
# ----------------------------------------------------------------------

def _validate_nop(instr: Instruction) -> None:
    if instr.dst is not None or instr.src1 is not None or instr.src2 is not None:
        raise IsaError("NOP takes no operands")


def _validate_li(instr: Instruction) -> None:
    _check_register(instr.dst, "LI destination")
    if instr.src1 is not None or instr.src2 is not None:
        raise IsaError("LI takes only a destination and an immediate")


def _validate_alu(instr: Instruction) -> None:
    if instr.alu_op is None:
        raise IsaError("ALU instruction requires alu_op")
    _check_register(instr.dst, "ALU destination")
    _check_register(instr.src1, "ALU src1")
    _check_register(instr.src2, "ALU src2", allow_none=True)


def _validate_load(instr: Instruction) -> None:
    _check_register(instr.dst, "LOAD destination")
    _check_register(instr.src1, "LOAD base", allow_none=True)
    if instr.src2 is not None:
        raise IsaError("LOAD takes no second source register")


def _validate_store(instr: Instruction) -> None:
    _check_register(instr.src2, "STORE data")
    _check_register(instr.src1, "STORE base", allow_none=True)
    if instr.dst is not None:
        raise IsaError("STORE has no destination register")


def _validate_flush(instr: Instruction) -> None:
    _check_register(instr.src1, "FLUSH base", allow_none=True)
    if instr.dst is not None or instr.src2 is not None:
        raise IsaError("FLUSH takes only a base register and offset")


def _validate_fence(instr: Instruction) -> None:
    if instr.dst is not None or instr.src1 is not None or instr.src2 is not None:
        raise IsaError("FENCE takes no operands")


def _validate_rdtsc(instr: Instruction) -> None:
    _check_register(instr.dst, "RDTSC destination")
    if instr.src1 is not None or instr.src2 is not None:
        raise IsaError("RDTSC takes only a destination register")


def _validate_halt(instr: Instruction) -> None:
    if instr.dst is not None or instr.src1 is not None or instr.src2 is not None:
        raise IsaError("HALT takes no operands")


_VALIDATORS = {
    Opcode.NOP: _validate_nop,
    Opcode.LI: _validate_li,
    Opcode.ALU: _validate_alu,
    Opcode.LOAD: _validate_load,
    Opcode.STORE: _validate_store,
    Opcode.FLUSH: _validate_flush,
    Opcode.FENCE: _validate_fence,
    Opcode.RDTSC: _validate_rdtsc,
    Opcode.HALT: _validate_halt,
}


# Convenience constructors --------------------------------------------------

def nop(tag: Optional[str] = None) -> Instruction:
    """A no-operation instruction (used for PC padding)."""
    return Instruction(Opcode.NOP, tag=tag)


def li(dst: int, imm: int, tag: Optional[str] = None) -> Instruction:
    """Load the immediate ``imm`` into register ``dst``."""
    return Instruction(Opcode.LI, dst=dst, imm=imm, tag=tag)


def alu(
    alu_op: AluOp,
    dst: int,
    src1: int,
    src2: Optional[int] = None,
    imm: int = 0,
    tag: Optional[str] = None,
) -> Instruction:
    """An ALU operation ``dst = src1 <op> (src2 | imm)``."""
    return Instruction(
        Opcode.ALU, dst=dst, src1=src1, src2=src2, imm=imm, alu_op=alu_op, tag=tag
    )


def load(
    dst: int,
    base: Optional[int] = None,
    imm: int = 0,
    tag: Optional[str] = None,
    secret: bool = False,
) -> Instruction:
    """A load ``dst = mem[base + imm]`` (``base=None`` means address ``imm``).

    ``secret=True`` marks the loaded value as secret-derived for the
    static analyzer; execution is unaffected.
    """
    return Instruction(
        Opcode.LOAD, dst=dst, src1=base, imm=imm, tag=tag, secret=secret
    )


def store(
    data: int,
    base: Optional[int] = None,
    imm: int = 0,
    tag: Optional[str] = None,
) -> Instruction:
    """A store ``mem[base + imm] = data``."""
    return Instruction(Opcode.STORE, src1=base, src2=data, imm=imm, tag=tag)


def flush(
    base: Optional[int] = None,
    imm: int = 0,
    tag: Optional[str] = None,
) -> Instruction:
    """Flush the cache line containing ``base + imm`` from all levels."""
    return Instruction(Opcode.FLUSH, src1=base, imm=imm, tag=tag)


def fence(tag: Optional[str] = None) -> Instruction:
    """A full serialising fence."""
    return Instruction(Opcode.FENCE, tag=tag)


def rdtsc(dst: int, tag: Optional[str] = None) -> Instruction:
    """Read the core cycle counter into ``dst`` (serialising, rdtscp-like)."""
    return Instruction(Opcode.RDTSC, dst=dst, tag=tag)


def halt(tag: Optional[str] = None) -> Instruction:
    """Terminate the program."""
    return Instruction(Opcode.HALT, tag=tag)
