"""Program container for the mini ISA.

A :class:`Program` is a straight-line sequence of instructions with
explicit program-counter (PC) values.  PCs matter for the attacks: the
Value Prediction System of the paper can be indexed by the load's PC,
so the attack programs pad code with nops ("pad to map to sender's
index" in Figure 3) — here represented by explicit PC pinning through
the builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import IsaError
from repro.isa.instructions import INSTRUCTION_BYTES, Instruction, Opcode


@dataclass(frozen=True)
class PlacedInstruction:
    """An instruction bound to a program counter."""

    pc: int
    instruction: Instruction

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.pc:#08x}: {self.instruction}"


@dataclass(frozen=True)
class LoopRegion:
    """A counted loop over a contiguous instruction range.

    ``start`` and ``stop`` are indices into the program's static
    instruction list (``stop`` exclusive); the body executes ``count``
    times.  Loops matter because a PC-indexed Value Prediction System
    accumulates confidence only when the *same load PC* repeats — an
    unrolled train loop would spread its accesses over many predictor
    entries and never train one.

    Loop trip counts are static (resolved at program-construction
    time), so the pipeline needs no branch prediction: the dynamic
    instruction trace is fully determined before execution.
    """

    start: int
    stop: int
    count: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop <= self.start:
            raise IsaError(
                f"invalid loop region [{self.start}, {self.stop})"
            )
        if self.count < 1:
            raise IsaError(f"loop count must be >= 1, got {self.count}")

    def contains(self, other: "LoopRegion") -> bool:
        """True if ``other`` nests strictly inside this region."""
        return self.start <= other.start and other.stop <= self.stop and (
            (self.start, self.stop) != (other.start, other.stop)
        )

    def overlaps(self, other: "LoopRegion") -> bool:
        """True if the regions overlap without nesting."""
        if self.contains(other) or other.contains(self):
            return False
        if (self.start, self.stop) == (other.start, other.stop):
            return True
        return self.start < other.stop and other.start < self.stop


class Program:
    """An ordered, PC-annotated instruction sequence for one process.

    Args:
        instructions: The placed instructions, in execution order.
            PCs must be strictly increasing and aligned to
            :data:`~repro.isa.instructions.INSTRUCTION_BYTES`.
        name: Human-readable name used in traces and reports.
        pid: Process identifier.  Programs with different pids have
            disjoint private data, and the VPS may mix the pid into its
            index (see :mod:`repro.vp.indexing`).
        labels: Optional mapping of label name to PC.
    """

    def __init__(
        self,
        instructions: Sequence[PlacedInstruction],
        name: str = "program",
        pid: int = 0,
        labels: Optional[Dict[str, int]] = None,
        loops: Optional[Sequence[LoopRegion]] = None,
    ) -> None:
        if not instructions:
            raise IsaError("a program must contain at least one instruction")
        previous_pc = -INSTRUCTION_BYTES
        for placed in instructions:
            if placed.pc % INSTRUCTION_BYTES != 0:
                raise IsaError(
                    f"pc {placed.pc:#x} is not aligned to {INSTRUCTION_BYTES} bytes"
                )
            if placed.pc <= previous_pc:
                raise IsaError(
                    f"pc {placed.pc:#x} does not increase past {previous_pc:#x}"
                )
            previous_pc = placed.pc
        if instructions[-1].instruction.op is not Opcode.HALT:
            raise IsaError("a program must end with HALT")
        self._instructions: Tuple[PlacedInstruction, ...] = tuple(instructions)
        self.name = name
        self.pid = pid
        self.labels: Dict[str, int] = dict(labels or {})
        self.loops: Tuple[LoopRegion, ...] = tuple(loops or ())
        for region in self.loops:
            if region.stop > len(self._instructions):
                raise IsaError(
                    f"loop region [{region.start}, {region.stop}) exceeds "
                    f"program length {len(self._instructions)}"
                )
        for i, first in enumerate(self.loops):
            for second in self.loops[i + 1:]:
                if first.overlaps(second):
                    raise IsaError(
                        f"loop regions {first} and {second} overlap without nesting"
                    )
        self._trace_cache: Optional[Tuple[PlacedInstruction, ...]] = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self) -> Iterator[PlacedInstruction]:
        return iter(self._instructions)

    def __getitem__(self, index: int) -> PlacedInstruction:
        return self._instructions[index]

    @property
    def instructions(self) -> Tuple[PlacedInstruction, ...]:
        """The placed instructions, in order."""
        return self._instructions

    @property
    def start_pc(self) -> int:
        """PC of the first instruction."""
        return self._instructions[0].pc

    @property
    def end_pc(self) -> int:
        """PC of the last instruction."""
        return self._instructions[-1].pc

    def pc_of_label(self, label: str) -> int:
        """Return the PC bound to ``label``.

        Raises:
            IsaError: If the label is unknown.
        """
        try:
            return self.labels[label]
        except KeyError:
            raise IsaError(f"unknown label {label!r} in program {self.name!r}") from None

    def pcs_tagged(self, tag: str) -> List[int]:
        """Return the PCs of all instructions annotated with ``tag``."""
        return [
            placed.pc
            for placed in self._instructions
            if placed.instruction.tag == tag
        ]

    def count_opcode(self, op: Opcode) -> int:
        """Number of instructions with opcode ``op``."""
        return sum(1 for placed in self._instructions if placed.instruction.op is op)

    # ------------------------------------------------------------------
    # Dynamic trace expansion
    # ------------------------------------------------------------------
    def dynamic_trace(self) -> Tuple[PlacedInstruction, ...]:
        """The dynamic instruction stream with loop regions expanded.

        Loop bodies replay the *same* placed instructions (same PCs)
        on every iteration, which is what lets a PC-indexed predictor
        accumulate confidence across train-loop iterations.  The
        result is cached; all loop trip counts are static so the trace
        is execution-independent.
        """
        if self._trace_cache is not None:
            return self._trace_cache
        trace = self._expand(0, len(self._instructions), self.loops)
        self._trace_cache = tuple(trace)
        return self._trace_cache

    def _expand(
        self,
        start: int,
        stop: int,
        regions: Sequence[LoopRegion],
    ) -> List[PlacedInstruction]:
        """Recursively expand loop ``regions`` within ``[start, stop)``."""
        top_level: List[LoopRegion] = []
        for region in regions:
            if region.start < start or region.stop > stop:
                continue
            if any(outer.contains(region) for outer in regions
                   if outer is not region and start <= outer.start and outer.stop <= stop):
                continue
            top_level.append(region)
        top_level.sort(key=lambda region: region.start)
        result: List[PlacedInstruction] = []
        cursor = start
        for region in top_level:
            result.extend(self._instructions[cursor:region.start])
            inner = [
                nested for nested in regions
                if region.contains(nested)
            ]
            body = self._expand(region.start, region.stop, inner)
            for _ in range(region.count):
                result.extend(body)
            cursor = region.stop
        result.extend(self._instructions[cursor:stop])
        return result

    def dynamic_length(self) -> int:
        """Length of the dynamic trace (with loops expanded)."""
        return len(self.dynamic_trace())

    def listing(self) -> str:
        """A human-readable disassembly listing."""
        reverse_labels: Dict[int, List[str]] = {}
        for label, pc in self.labels.items():
            reverse_labels.setdefault(pc, []).append(label)
        lines = [f"; program {self.name!r} pid={self.pid}"]
        for placed in self._instructions:
            for label in sorted(reverse_labels.get(placed.pc, [])):
                lines.append(f"{label}:")
            lines.append(f"  {placed}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Program(name={self.name!r}, pid={self.pid}, "
            f"instructions={len(self._instructions)})"
        )
