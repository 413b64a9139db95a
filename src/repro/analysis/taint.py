"""Dataflow/taint analysis over a program's dynamic trace.

The lattice has two points, CLEAN < SECRET.  Taint sources are loads
carrying the ``secret`` annotation (see
:class:`~repro.isa.instructions.Instruction`) plus any load PCs the
caller designates (e.g. loads whose value the VPS abstract
interpreter proves will be *predicted* from a secret-trained entry).
Taint propagates forward through registers (ALU results) and through
memory (stores of tainted data taint the stored-to address).

Two flow kinds are reported:

* **address flows** — a memory operation whose effective address
  depends on a tainted register: the Spectre-style
  ``probe[secret * stride]`` encode of the persistent channel;
* **window flows** — a tainted value consumed inside an
  RDTSC-bracketed timing window: the timing-window channel.

Because programs are straight-line with static loop counts, the
analysis walks the exact dynamic trace — there is no widening and no
approximation beyond unknown memory contents.  The walk,
:func:`constant_walk`, is the one the abstract VPS
(:mod:`repro.analysis.vpstate`) replays too: it resolves registers and
effective addresses with the core's own arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Set, Tuple

from repro.isa.instructions import Opcode
from repro.isa.program import PlacedInstruction, Program
from repro.pipeline.core import _VALUE_MASK, EA_MASK, _alu_compute


@dataclass(frozen=True)
class LoadInfo:
    """One dynamic load instance."""

    trace_index: int
    pc: int
    addr: Optional[int]
    tag: Optional[str]
    secret: bool
    tainted: bool


@dataclass(frozen=True)
class AddressFlow:
    """A memory access whose address is secret-derived."""

    trace_index: int
    pc: int
    op: str

    def describe(self) -> str:
        """Human-readable one-liner."""
        return f"secret->address flow: {self.op} at pc {self.pc:#x}"


@dataclass(frozen=True)
class TimedWindow:
    """One RDTSC-bracketed region of the dynamic trace.

    ``start``/``stop`` are dynamic trace indices of the bracketing
    RDTSC instructions (exclusive of both).
    """

    start_pc: int
    stop_pc: int
    start: int
    stop: int
    instructions: int
    has_load: bool
    tainted: bool


@dataclass
class TaintReport:
    """Result of :func:`analyze_taint` for one program."""

    program_name: str
    loads: List[LoadInfo] = field(default_factory=list)
    address_flows: List[AddressFlow] = field(default_factory=list)
    windows: List[TimedWindow] = field(default_factory=list)
    unpaired_rdtsc: bool = False

    @property
    def secret_loads(self) -> List[LoadInfo]:
        """Loads carrying the ``secret`` annotation."""
        return [load for load in self.loads if load.secret]

    @property
    def tainted_windows(self) -> List[TimedWindow]:
        """Timing windows that consume a secret-derived value."""
        return [window for window in self.windows if window.tainted]

    @property
    def has_secret_flow(self) -> bool:
        """True when any secret reaches an address or a timed window."""
        return bool(self.address_flows) or bool(self.tainted_windows)

    def loads_tagged(self, tag: str) -> List[LoadInfo]:
        """Dynamic load instances whose instruction carries ``tag``."""
        return [load for load in self.loads if load.tag == tag]


def constant_walk(
    program: Program,
    memory: Optional[Mapping[Tuple[int, int], int]] = None,
) -> Iterator[Tuple[PlacedInstruction, Optional[int], Optional[int]]]:
    """Walk ``program``'s dynamic trace, folding constants as the core does.

    Yields every dynamic instruction with its effective address (memory
    operations) and the value it writes to its destination register,
    each ``None`` when unknown.  The arithmetic is the core's own: ALU
    results through :func:`~repro.pipeline.core._alu_compute`, ``li``
    immediates masked to 64 bits and effective addresses to
    :data:`~repro.pipeline.core.EA_MASK`, exactly as
    :class:`~repro.pipeline.core.Core` and
    :class:`~repro.pipeline.reference.ReferenceExecutor` compute them.
    Registers start unknown, as do RDTSC readings; a load reads the
    64-bit word ``memory`` holds (``(pid, addr) -> value``, the
    architectural values written before the program runs) and is
    unknown elsewhere.  The program's own stores are not tracked.
    """
    known: Dict[int, int] = {}
    for placed in program.dynamic_trace():
        ins = placed.instruction
        op = ins.op
        addr: Optional[int] = None
        value: Optional[int] = None
        if op is Opcode.LI:
            value = ins.imm & _VALUE_MASK
        elif op is Opcode.ALU:
            lhs = None if ins.src1 is None else known.get(ins.src1)
            rhs = ins.imm if ins.src2 is None else known.get(ins.src2)
            if lhs is not None and rhs is not None and ins.alu_op is not None:
                value = _alu_compute(ins.alu_op, lhs, rhs)
        elif op is Opcode.LOAD or op is Opcode.STORE or op is Opcode.FLUSH:
            base = 0 if ins.src1 is None else known.get(ins.src1)
            if base is not None:
                addr = (base + ins.imm) & EA_MASK
                if op is Opcode.LOAD and memory:
                    word = memory.get((program.pid, addr))
                    value = None if word is None else word & _VALUE_MASK
        yield placed, addr, value
        if ins.dst is not None:
            if value is None:
                known.pop(ins.dst, None)
            else:
                known[ins.dst] = value


def analyze_taint(
    program: Program,
    *,
    extra_source_pcs: FrozenSet[int] = frozenset(),
    use_secret_annotations: bool = True,
) -> TaintReport:
    """Forward taint analysis over ``program``'s dynamic trace.

    Args:
        program: The program to analyse.
        extra_source_pcs: Load PCs treated as taint sources in
            addition to (or, with ``use_secret_annotations=False``,
            instead of) the ``secret`` instruction annotations.
        use_secret_annotations: Honour ``Instruction.secret`` flags.
    """
    report = TaintReport(program_name=program.name)
    reg_taint: Dict[int, bool] = {}
    mem_taint: Set[int] = set()
    rdtsc_marks: List[Tuple[int, int]] = []  # (trace index, pc)
    taint_trace: List[bool] = []  # per dynamic instruction: consumed taint?

    for index, (placed, addr, _) in enumerate(constant_walk(program)):
        ins = placed.instruction
        sources = ins.source_registers()
        consumed_taint = any(reg_taint.get(reg, False) for reg in sources)
        base_taint = (
            ins.src1 is not None and reg_taint.get(ins.src1, False)
            if ins.is_memory else False
        )
        if base_taint:
            report.address_flows.append(
                AddressFlow(trace_index=index, pc=placed.pc,
                            op=ins.op.value)
            )

        if ins.op is Opcode.LI:
            reg_taint[ins.dst] = False
        elif ins.op is Opcode.ALU:
            reg_taint[ins.dst] = consumed_taint
        elif ins.op is Opcode.LOAD:
            is_source = (
                (use_secret_annotations and ins.secret)
                or placed.pc in extra_source_pcs
            )
            tainted = (
                is_source
                or base_taint
                or (addr is not None and addr in mem_taint)
            )
            reg_taint[ins.dst] = tainted
            consumed_taint = consumed_taint or tainted
            report.loads.append(LoadInfo(
                trace_index=index, pc=placed.pc, addr=addr,
                tag=ins.tag, secret=bool(ins.secret), tainted=tainted,
            ))
        elif ins.op is Opcode.STORE:
            if reg_taint.get(ins.src2, False) and addr is not None:
                mem_taint.add(addr)
        elif ins.op is Opcode.RDTSC:
            reg_taint[ins.dst] = False
            rdtsc_marks.append((index, placed.pc))
        taint_trace.append(consumed_taint)

    trace = program.dynamic_trace()
    report.unpaired_rdtsc = len(rdtsc_marks) % 2 == 1
    for first, second in zip(rdtsc_marks[0::2], rdtsc_marks[1::2]):
        inner = range(first[0] + 1, second[0])
        report.windows.append(TimedWindow(
            start_pc=first[1],
            stop_pc=second[1],
            start=first[0],
            stop=second[0],
            instructions=len(inner),
            has_load=any(
                trace[i].instruction.op is Opcode.LOAD for i in inner
            ),
            tainted=any(taint_trace[i] for i in inner),
        ))
    return report


def dst_ever_read(program: Program, load_trace_index: int) -> bool:
    """Is the value produced by the load at ``load_trace_index`` read?

    Walks the dynamic trace forward from the load; returns True as
    soon as any instruction sources the destination register, False if
    the register is overwritten first (or never read).
    """
    trace = program.dynamic_trace()
    dst = trace[load_trace_index].instruction.dst
    for placed in trace[load_trace_index + 1:]:
        ins = placed.instruction
        if dst in ins.source_registers():
            return True
        if ins.destination_register() == dst:
            return False
    return False
