"""The out-of-order core with an integrated Value Prediction System.

This is the pipeline of the paper's Figure 1.  The mechanisms the
attacks rely on are modelled at cycle granularity:

* Loads that **miss** in L1 consult the VPS ("load-based VPS" — the
  paper's threat model).  A prediction broadcasts a *speculative*
  value to dependents after :attr:`CoreConfig.predict_latency` cycles,
  long before the actual data returns from memory.
* When the data returns, the **Prediction Verification** step trains
  the predictor and compares.  A correct prediction commits normally;
  a misprediction squashes every younger instruction ("not only the
  predicted load but also dependent instructions to be squashed and
  reissued") and refetch resumes after
  :attr:`CoreConfig.squash_penalty` cycles.
* Instructions executed under an unverified prediction still perform
  real cache fills (unless a delay-side-effect defense is active), so
  a squashed transient load leaves a footprint — the paper's
  persistent channel.

The resulting trigger-step timings order exactly as the paper
describes: *correct prediction* (dependents overlap the miss) <
*no prediction* (dependents serialize after the miss) <
*misprediction* (miss, squash penalty, then re-execution).

Timing fidelity note: the simulator advances cycle by cycle but skips
runs of provably idle cycles (e.g. while all in-flight loads wait on
DRAM); this is a pure speed optimisation and does not change any
event's cycle number.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import islice
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import PipelineError, SimulationError
from repro.perf.counters import COUNTERS
from repro.isa.instructions import (
    NUM_REGISTERS,
    AluOp,
    Opcode,
)
from repro.isa.program import PlacedInstruction, Program
from repro.memory.hierarchy import MemorySystem
from repro.pipeline.config import CoreConfig
from repro.pipeline.trace import LoadEvent, RunResult
from repro.pipeline.uop import MicroOp, UopState
from repro.vp.base import AccessKey, ValuePredictor
from repro.vp.nopred import NoPredictor

#: Effective addresses are masked into the private virtual range so
#: attacker-controlled arithmetic can never overflow the address map.
EA_MASK = (1 << 40) - 1

_VALUE_MASK = (1 << 64) - 1


def _alu_compute(alu_op: AluOp, lhs: int, rhs: int) -> int:
    """Evaluate an ALU operation on 64-bit values."""
    if alu_op is AluOp.ADD:
        result = lhs + rhs
    elif alu_op is AluOp.SUB:
        result = lhs - rhs
    elif alu_op is AluOp.XOR:
        result = lhs ^ rhs
    elif alu_op is AluOp.AND:
        result = lhs & rhs
    elif alu_op is AluOp.OR:
        result = lhs | rhs
    elif alu_op is AluOp.MUL:
        result = lhs * rhs
    elif alu_op is AluOp.SHL:
        result = lhs << (rhs & 63)
    elif alu_op is AluOp.SHR:
        result = (lhs & _VALUE_MASK) >> (rhs & 63)
    else:  # pragma: no cover - exhaustive over AluOp
        raise PipelineError(f"unhandled ALU op {alu_op}")
    return result & _VALUE_MASK


class Core:
    """A single out-of-order core.

    The core's memory system and predictor persist across
    :meth:`run` calls — that persistence is the shared
    microarchitectural state the sender and receiver communicate
    through.  The cycle counter is likewise global and monotonic, so
    RDTSC readings taken in different runs share a timebase.

    Args:
        memory: Shared memory hierarchy.
        predictor: The Value Prediction System (use
            :class:`~repro.vp.nopred.NoPredictor` or
            ``config.value_prediction=False`` for the "no VP" control).
        config: Core parameters.
    """

    def __init__(
        self,
        memory: MemorySystem,
        predictor: Optional[ValuePredictor] = None,
        config: Optional[CoreConfig] = None,
    ) -> None:
        self.memory = memory
        self.predictor = predictor if predictor is not None else NoPredictor()
        self.config = config or CoreConfig()
        self.cycle = 0
        self._seq = 0

    def reset(self, predictor: Optional[ValuePredictor] = None) -> None:
        """Restore the core to its just-constructed state.

        Part of the warm-machine reset protocol: zeroes the cycle
        counter (so RDTSC timebases match a cold core) and the sequence
        counter, and optionally installs a fresh predictor chain.  The
        memory system is reset separately via
        :meth:`repro.memory.hierarchy.MemorySystem.reset` — after
        both, a reused core is observationally identical to
        ``Core(memory, predictor, config)`` on a fresh hierarchy.
        """
        if predictor is not None:
            self.predictor = predictor
        self.cycle = 0
        self._seq = 0

    # ------------------------------------------------------------------
    def run(self, program: Program) -> RunResult:
        """Execute ``program`` to completion and return its results."""
        return self.run_concurrent([program])[0]

    def run_concurrent(self, programs: Sequence[Program]) -> List[RunResult]:
        """Execute several programs simultaneously, SMT-style.

        Each program gets its own hardware context (ROB, rename map,
        store buffer) but all contexts share the **execution ports**
        each cycle, the memory hierarchy, and the Value Prediction
        System.  Port sharing is what creates the paper's *volatile*
        (contention) channel: a co-runner can observe another context's
        transient execution through the latency of its own port-bound
        operations.

        Contexts that finish early simply stop consuming resources;
        the call returns when every program has retired its HALT.
        Per-context end cycles record when *that* context drained.
        """
        if not programs:
            raise SimulationError("run_concurrent needs at least one program")
        states = [
            _RunState(self, program, program.dynamic_trace())
            for program in programs
        ]
        start_cycle = self.cycle
        end_cycles: List[Optional[int]] = [None] * len(states)
        safety_limit = start_cycle + self.config.max_cycles

        def unfinished(state: "_RunState") -> bool:
            return state.fetch_index < len(state.trace) or bool(state.rob)

        # One port-budget object is reused for the whole run; a fresh
        # allocation per simulated cycle dominated the allocator in
        # profiles of long sweeps.
        ports = _PortBudget(self.config)

        while any(unfinished(state) for state in states):
            if self.cycle > safety_limit:
                names = ", ".join(program.name for program in programs)
                raise SimulationError(
                    f"programs [{names}] exceeded "
                    f"{self.config.max_cycles} cycles (livelock?)"
                )
            progress = False
            for state in states:
                if unfinished(state):
                    progress |= state.complete_and_verify()
                    progress |= state.commit()
            # Round-robin issue priority between contexts, as in real
            # SMT cores: without it the first context would never feel
            # contention and the volatile channel would be one-sided.
            ports.refill(self.config)
            offset = self.cycle % len(states)
            for state in states[offset:] + states[:offset]:
                if unfinished(state):
                    progress |= state.issue(ports)
            for state in states:
                if unfinished(state):
                    progress |= state.dispatch()
            for index, state in enumerate(states):
                if end_cycles[index] is None and not unfinished(state):
                    end_cycles[index] = self.cycle
            if progress:
                self.cycle += 1
            else:
                candidates = [
                    state.next_event_cycle()
                    for state in states if unfinished(state)
                ]
                candidates = [c for c in candidates if c is not None]
                next_cycle = min(candidates) if candidates else None
                if next_cycle is None or next_cycle <= self.cycle:
                    details = "; ".join(
                        f"{state.program.name}: {state.describe_stall()}"
                        for state in states if unfinished(state)
                    )
                    raise SimulationError(
                        f"pipeline deadlock at cycle {self.cycle}: {details}"
                    )
                self.cycle = next_cycle

        COUNTERS.simulated_cycles += self.cycle - start_cycle
        results = []
        for index, state in enumerate(states):
            results.append(RunResult(
                program_name=state.program.name,
                pid=state.program.pid,
                start_cycle=start_cycle,
                end_cycle=(
                    end_cycles[index]
                    if end_cycles[index] is not None else self.cycle
                ),
                retired=state.retired,
                squashes=state.squashes,
                rdtsc_values=state.rdtsc_values,
                registers={
                    reg: value
                    for reg, value in enumerate(state.arch_regs)
                    if value != 0
                },
                load_events=state.load_events,
            ))
        return results


class _PortBudget:
    """Per-cycle execution-port availability, shared by all contexts."""

    __slots__ = ("alu", "mul", "mem")

    def __init__(self, config: CoreConfig) -> None:
        self.refill(config)

    def refill(self, config: CoreConfig) -> None:
        """Restore the full budget at the start of a cycle."""
        self.alu = config.alu_ports
        self.mul = config.mul_ports
        self.mem = config.mem_ports


class _RunState:
    """Per-run mutable pipeline state (ROB, rename map, buffers)."""

    __slots__ = (
        "core", "config", "memory", "predictor", "program", "trace",
        "pid", "rob", "rename", "arch_regs", "store_buffer",
        "fetch_index", "dispatch_stall_until", "fence_active",
        "retired", "squashes", "rdtsc_values", "load_events",
        "unverified_predictions", "deferred_fills", "pending_issue",
        "issued_uops", "_earliest_completion", "_event_heap",
    )

    def __init__(self, core: Core, program: Program,
                 trace: Tuple[PlacedInstruction, ...]) -> None:
        self.core = core
        self.config = core.config
        self.memory = core.memory
        self.predictor = core.predictor
        self.program = program
        self.trace = trace
        self.pid = program.pid

        # The ROB is a deque: commit retires from the left every cycle,
        # and list.pop(0) was a measurable share of long sweeps.
        self.rob: Deque[MicroOp] = deque()
        self.rename: Dict[int, MicroOp] = {}
        self.arch_regs: List[int] = [0] * NUM_REGISTERS
        self.store_buffer: List[MicroOp] = []
        self.fetch_index = 0
        self.dispatch_stall_until = 0
        self.fence_active = 0

        self.retired = 0
        self.squashes = 0
        self.rdtsc_values: List[Tuple[int, int]] = []
        self.load_events: List[LoadEvent] = []

        # seq -> predicted load whose verification is still pending.
        self.unverified_predictions: Dict[int, MicroOp] = {}
        # src seq -> uops whose deferred fill waits on that prediction.
        self.deferred_fills: Dict[int, List[MicroOp]] = {}
        # Ops dispatched but not yet issued, in program order (a
        # scan-cost optimisation: the issue stage walks this instead of
        # the whole ROB).
        self.pending_issue: List[MicroOp] = []
        # Ops issued but not yet completed (the complement of
        # pending_issue): completion scans walk this short list instead
        # of the whole ROB, which for long dependent-chain windows is
        # mostly DISPATCHED ops that cannot complete anyway.
        self.issued_uops: List[MicroOp] = []
        # Earliest pending completion among ISSUED ops, or None; lets
        # completion scans exit immediately on quiet cycles.
        self._earliest_completion: Optional[int] = None
        # Min-heap of future event cycles (value-ready and completion
        # times, as scheduled).  next_event_cycle() pops it lazily
        # instead of scanning the whole ROB.  Entries are never removed
        # on squash, so the heap may hold *stale* cycles; waking at a
        # stale cycle is a harmless no-progress visit — no event is
        # recorded there and the loop immediately skips onward, so
        # every recorded cycle number is identical to the scan version.
        self._event_heap: List[int] = []

    def _note_completion_time(self, when: int) -> None:
        heappush(self._event_heap, when)
        if (
            self._earliest_completion is None
            or when < self._earliest_completion
        ):
            self._earliest_completion = when

    def _recompute_earliest_completion(self) -> None:
        earliest: Optional[int] = None
        for uop in self.issued_uops:
            if uop.state is UopState.ISSUED and uop.complete_cycle is not None:
                if earliest is None or uop.complete_cycle < earliest:
                    earliest = uop.complete_cycle
        self._earliest_completion = earliest

    # ------------------------------------------------------------------
    # Stage: completion and prediction verification
    # ------------------------------------------------------------------
    def complete_and_verify(self) -> bool:
        """Move finished ops to COMPLETED; verify predictions in order."""
        cycle = self.core.cycle
        if (
            self._earliest_completion is None
            or self._earliest_completion > cycle
        ):
            return False
        progress = False
        while True:
            candidate: Optional[MicroOp] = None
            for uop in self.issued_uops:
                if uop.state is not UopState.ISSUED:
                    continue
                if uop.complete_cycle is None or uop.complete_cycle > cycle:
                    continue
                if candidate is None or (
                    (uop.complete_cycle, uop.seq)
                    < (candidate.complete_cycle, candidate.seq)
                ):
                    candidate = uop
            if candidate is None:
                self.issued_uops = [
                    uop for uop in self.issued_uops
                    if uop.state is UopState.ISSUED
                ]
                self._recompute_earliest_completion()
                return progress
            progress = True
            self._finish(candidate)

    def _finish(self, uop: MicroOp) -> None:
        """Complete one op; for predicted loads, verify and maybe squash."""
        uop.state = UopState.COMPLETED
        if not uop.is_load:
            return
        squashed_count = 0
        if not uop.forwarded and uop.vps_key is not None:
            # The VPS observes the returning value (miss loads always;
            # hit loads under predict_on_hit).
            assert uop.actual_value is not None
            if uop.prediction is not None:
                self.predictor.train(
                    uop.vps_key, uop.actual_value, uop.prediction
                )
                self.unverified_predictions.pop(uop.seq, None)
                if uop.prediction.value == uop.actual_value:
                    uop.verified = True
                    self._resolve_deferred_fills(uop, correct=True)
                else:
                    uop.verified = False
                    uop.result = uop.actual_value
                    uop.value_ready_cycle = uop.complete_cycle
                    squashed_count = self._squash_younger(uop)
            else:
                self.predictor.train(uop.vps_key, uop.actual_value, None)
        self._record_load_event(uop, squashed_count)

    def _record_load_event(self, uop: MicroOp, squashed_count: int) -> None:
        assert uop.issue_cycle is not None and uop.complete_cycle is not None
        self.load_events.append(
            LoadEvent(
                seq=uop.seq,
                pc=uop.pc,
                addr=uop.addr if uop.addr is not None else 0,
                issue_cycle=uop.issue_cycle,
                complete_cycle=uop.complete_cycle,
                latency=uop.complete_cycle - uop.issue_cycle,
                l1_hit=bool(uop.l1_hit),
                forwarded=uop.forwarded,
                predicted=uop.prediction is not None,
                prediction_correct=uop.verified,
                value=uop.result if uop.result is not None else 0,
                squashed_dependents=squashed_count,
            )
        )

    # ------------------------------------------------------------------
    # Squash machinery
    # ------------------------------------------------------------------
    def _squash_younger(self, load: MicroOp) -> int:
        """Squash everything younger than ``load``; returns the count."""
        self.squashes += 1
        survivors: Deque[MicroOp] = deque()
        squashed: List[MicroOp] = []
        for uop in self.rob:
            if uop.seq > load.seq:
                uop.state = UopState.SQUASHED
                squashed.append(uop)
            else:
                survivors.append(uop)
        self.rob = survivors
        self.store_buffer = [
            store for store in self.store_buffer
            if store.state is not UopState.SQUASHED
        ]
        self.pending_issue = [
            uop for uop in self.pending_issue
            if uop.state is not UopState.SQUASHED
        ]
        self.issued_uops = [
            uop for uop in self.issued_uops
            if uop.state is UopState.ISSUED
        ]
        self._recompute_earliest_completion()
        for uop in squashed:
            self.unverified_predictions.pop(uop.seq, None)
        for src_seq in list(self.deferred_fills):
            remaining = [
                uop for uop in self.deferred_fills[src_seq]
                if uop.state is not UopState.SQUASHED
            ]
            if remaining:
                self.deferred_fills[src_seq] = remaining
            else:
                del self.deferred_fills[src_seq]
        # Rebuild the rename map from the surviving window.
        self.rename = {}
        for uop in self.rob:
            if uop.state is UopState.RETIRED:
                continue
            destination = uop.instr.destination_register()
            if destination is not None:
                self.rename[destination] = uop
        self.fence_active = sum(
            1 for uop in self.rob if uop.instr.op is Opcode.FENCE
        )
        # Refetch resumes after the squash penalty.
        self.fetch_index = load.trace_index + 1
        self.dispatch_stall_until = max(
            self.dispatch_stall_until,
            self.core.cycle + self.config.squash_penalty,
        )
        return len(squashed)

    def _resolve_deferred_fills(self, verified_load: MicroOp, correct: bool) -> None:
        """Release (or re-key) fills gated on ``verified_load``."""
        waiting = self.deferred_fills.pop(verified_load.seq, [])
        if not waiting or not correct:
            return
        parent_seq = verified_load.spec_src
        parent_unverified = (
            parent_seq is not None and parent_seq in self.unverified_predictions
        )
        for uop in waiting:
            if uop.state is UopState.SQUASHED:
                continue
            if parent_unverified:
                uop.spec_src = parent_seq
                self.deferred_fills.setdefault(parent_seq, []).append(uop)
            elif uop.pending_fill_paddr is not None and not self.config.invisispec:
                assert uop.addr is not None
                self.memory.apply_deferred_fill(
                    uop.pending_fill_paddr, self.pid, uop.addr
                )
                uop.pending_fill_paddr = None

    # ------------------------------------------------------------------
    # Stage: commit
    # ------------------------------------------------------------------
    def commit(self) -> bool:
        """Retire completed head-of-ROB ops; execute serialising ops there."""
        cycle = self.core.cycle
        progress = False
        budget = self.config.commit_width
        while budget > 0 and self.rob:
            head = self.rob[0]
            if head.state is UopState.DISPATCHED and head.serial_op:
                # RDTSC / FENCE execute once they reach the head with
                # the machine drained (in-order ancestors retired).
                head.state = UopState.COMPLETED
                head.value_ready_cycle = cycle
                head.complete_cycle = cycle
                if head.instr.op is Opcode.RDTSC:
                    head.result = cycle
                progress = True
            if head.state is not UopState.COMPLETED:
                break
            if head.complete_cycle is not None and head.complete_cycle > cycle:
                break
            self._retire(head)
            self.rob.popleft()
            budget -= 1
            progress = True
        return progress

    def _retire(self, uop: MicroOp) -> None:
        uop.state = UopState.RETIRED
        destination = uop.instr.destination_register()
        if destination is not None:
            self.arch_regs[destination] = uop.result if uop.result is not None else 0
            if self.rename.get(destination) is uop:
                del self.rename[destination]
        if uop.instr.op is Opcode.RDTSC:
            self.rdtsc_values.append((uop.pc, uop.result or 0))
        elif uop.instr.op is Opcode.FENCE:
            self.fence_active -= 1
        elif uop.is_store:
            assert uop.addr is not None and uop.result is not None
            self.memory.store(self.pid, uop.addr, uop.result)
            if uop in self.store_buffer:
                self.store_buffer.remove(uop)
        elif uop.is_load and uop.pending_fill_paddr is not None:
            # InvisiSpec-style deferred fill lands at commit.
            assert uop.addr is not None
            self.memory.apply_deferred_fill(
                uop.pending_fill_paddr, self.pid, uop.addr
            )
            uop.pending_fill_paddr = None
        self.retired += 1

    # ------------------------------------------------------------------
    # Stage: issue/execute
    # ------------------------------------------------------------------
    def issue(self, ports: Optional["_PortBudget"] = None) -> bool:
        """Issue ready ops to the (possibly shared) execution ports."""
        cycle = self.core.cycle
        budget = self.config.issue_width
        if ports is None:
            ports = _PortBudget(self.config)
        progress = False
        memory_blocked = False
        leftovers: List[MicroOp] = []

        for index, uop in enumerate(self.pending_issue):
            if budget <= 0:
                leftovers.extend(self.pending_issue[index:])
                break
            if uop.state is not UopState.DISPATCHED:
                # Issued earlier, completed via commit() (serialising
                # ops), or squashed: drop from the pending list.
                continue
            op = uop.instr.op
            if uop.serial_op:
                leftovers.append(uop)  # handled at the ROB head by commit()
                continue
            if uop.mem_op:
                if memory_blocked:
                    leftovers.append(uop)
                    continue
                # ready_hint is checked inline before the call: the
                # compare alone rejects most waiting ops and the
                # function-call overhead was itself hot.
                if (
                    uop.ready_hint > cycle
                    or not uop.ready_for_issue(cycle)
                    or ports.mem <= 0
                ):
                    memory_blocked = True
                    leftovers.append(uop)
                    continue
                ports.mem -= 1
                budget -= 1
                progress = True
                self._issue_memory(uop, cycle)
                continue
            if uop.ready_hint > cycle or not uop.ready_for_issue(cycle):
                leftovers.append(uop)
                continue
            if op in (Opcode.NOP, Opcode.HALT):
                uop.state = UopState.ISSUED
                uop.issue_cycle = cycle
                uop.value_ready_cycle = cycle + 1
                uop.complete_cycle = cycle + 1
                self.issued_uops.append(uop)
                self._note_completion_time(cycle + 1)
                budget -= 1
                progress = True
                continue
            if op is Opcode.LI:
                uop.state = UopState.ISSUED
                uop.issue_cycle = cycle
                uop.result = uop.instr.imm & _VALUE_MASK
                latency = self.config.alu_latency
                uop.value_ready_cycle = cycle + latency
                uop.complete_cycle = cycle + latency
                self.issued_uops.append(uop)
                self._note_completion_time(cycle + latency)
                budget -= 1
                progress = True
                continue
            # ALU
            needs_mul = uop.instr.alu_op is AluOp.MUL
            if (needs_mul and ports.mul <= 0) or (
                not needs_mul and ports.alu <= 0
            ):
                leftovers.append(uop)
                continue
            lhs = uop.source_value(uop.instr.src1, self._arch_read)
            if uop.instr.src2 is not None:
                rhs = uop.source_value(uop.instr.src2, self._arch_read)
            else:
                rhs = uop.instr.imm
            uop.result = _alu_compute(uop.instr.alu_op, lhs, rhs)
            uop.spec_src = self._speculative_source(uop)
            latency = (
                self.config.mul_latency if needs_mul else self.config.alu_latency
            )
            uop.state = UopState.ISSUED
            uop.issue_cycle = cycle
            uop.value_ready_cycle = cycle + latency
            uop.complete_cycle = cycle + latency
            self.issued_uops.append(uop)
            self._note_completion_time(cycle + latency)
            if needs_mul:
                ports.mul -= 1
            else:
                ports.alu -= 1
            budget -= 1
            progress = True
        self.pending_issue = leftovers
        return progress

    def _arch_read(self, reg: int) -> int:
        return self.arch_regs[reg]

    def _speculative_source(self, uop: MicroOp) -> Optional[int]:
        """Youngest unverified predicted load this op depends on."""
        best: Optional[int] = None
        for producer in uop.sources.values():
            if producer is None:
                continue
            candidate: Optional[int] = None
            if (
                producer.is_load
                and producer.prediction is not None
                and producer.verified is None
            ):
                candidate = producer.seq
            elif (
                producer.spec_src is not None
                and producer.spec_src in self.unverified_predictions
            ):
                candidate = producer.spec_src
            if candidate is not None and (best is None or candidate > best):
                best = candidate
        return best

    def _effective_address(self, uop: MicroOp) -> int:
        base = 0
        if uop.instr.src1 is not None:
            base = uop.source_value(uop.instr.src1, self._arch_read)
        return (base + uop.instr.imm) & EA_MASK

    def _issue_memory(self, uop: MicroOp, cycle: int) -> None:
        op = uop.instr.op
        uop.state = UopState.ISSUED
        uop.issue_cycle = cycle
        self.issued_uops.append(uop)
        uop.addr = self._effective_address(uop)
        uop.spec_src = self._speculative_source(uop)

        if op is Opcode.FLUSH:
            self.memory.flush(self.pid, uop.addr)
            done = cycle + self.memory.config.flush_latency
            uop.value_ready_cycle = done
            uop.complete_cycle = done
            self._note_completion_time(done)
            return

        if op is Opcode.STORE:
            uop.result = uop.source_value(uop.instr.src2, self._arch_read)
            uop.value_ready_cycle = cycle + 1
            uop.complete_cycle = cycle + 1
            self._note_completion_time(cycle + 1)
            self.store_buffer.append(uop)
            return

        # LOAD ----------------------------------------------------------
        forwarding_store = self._forwarding_store(uop)
        if forwarding_store is not None:
            uop.forwarded = True
            uop.l1_hit = True
            uop.result = forwarding_store.result
            uop.actual_value = forwarding_store.result
            done = cycle + self.memory.config.l1_hit_latency
            uop.value_ready_cycle = done
            uop.complete_cycle = done
            self._note_completion_time(done)
            return

        defer_for_dtype = (
            self.config.delay_speculative_fills and uop.spec_src is not None
        )
        fill = not (self.config.invisispec or defer_for_dtype)
        result = self.memory.load(self.pid, uop.addr, fill=fill)
        if not fill:
            uop.pending_fill_paddr = result.paddr
            if defer_for_dtype and not self.config.invisispec:
                self.deferred_fills.setdefault(uop.spec_src, []).append(uop)
        uop.l1_hit = result.l1_hit
        uop.actual_value = result.value

        if result.l1_hit:
            done = cycle + result.latency
            if self.config.predict_on_hit:
                uop.vps_key = AccessKey(pc=uop.pc, addr=uop.addr, pid=self.pid)
            if (
                self.config.predict_on_hit
                and self.config.value_prediction
            ):
                # Footnote 2's non-load-based VPS: prediction happens
                # regardless of hit/miss.  Mispredicted hits still
                # squash, so the attacks need no cache flushing.
                prediction = self.predictor.predict(uop.vps_key)
                if prediction is not None:
                    uop.prediction = prediction
                    uop.result = prediction.value
                    uop.value_ready_cycle = min(
                        cycle + self.config.predict_latency, done
                    )
                    uop.complete_cycle = done
                    heappush(self._event_heap, uop.value_ready_cycle)
                    self._note_completion_time(done)
                    self.unverified_predictions[uop.seq] = uop
                    return
            uop.result = result.value
            uop.value_ready_cycle = done
            uop.complete_cycle = done
            self._note_completion_time(done)
            return

        # L1 miss: the Value Prediction System is engaged.
        uop.vps_key = AccessKey(pc=uop.pc, addr=uop.addr, pid=self.pid)
        memory_return = cycle + result.latency
        prediction = None
        if self.config.value_prediction:
            prediction = self.predictor.predict(uop.vps_key)
        if prediction is not None:
            uop.prediction = prediction
            uop.result = prediction.value
            uop.value_ready_cycle = cycle + self.config.predict_latency
            uop.complete_cycle = memory_return
            heappush(self._event_heap, uop.value_ready_cycle)
            self.unverified_predictions[uop.seq] = uop
        else:
            uop.result = result.value
            uop.value_ready_cycle = memory_return
            uop.complete_cycle = memory_return
        self._note_completion_time(memory_return)

    def _forwarding_store(self, load: MicroOp) -> Optional[MicroOp]:
        """Youngest older in-flight store to the same address."""
        best: Optional[MicroOp] = None
        for store in self.store_buffer:
            if store.seq < load.seq and store.addr == load.addr:
                if best is None or store.seq > best.seq:
                    best = store
        return best

    # ------------------------------------------------------------------
    # Stage: dispatch (fetch/decode/rename compressed into one stage)
    # ------------------------------------------------------------------
    def dispatch(self) -> bool:
        """Fetch/rename up to fetch_width trace entries into the ROB."""
        cycle = self.core.cycle
        if cycle < self.dispatch_stall_until:
            return False
        if self.fence_active > 0:
            return False
        budget = self.config.fetch_width
        progress = False
        while (
            budget > 0
            and self.fetch_index < len(self.trace)
            and len(self.rob) < self.config.rob_size
        ):
            placed = self.trace[self.fetch_index]
            uop = MicroOp(
                seq=self.core._seq,
                trace_index=self.fetch_index,
                pc=placed.pc,
                instr=placed.instruction,
            )
            self.core._seq += 1
            for reg in placed.instruction.source_registers():
                uop.sources[reg] = self.rename.get(reg)
            destination = placed.instruction.destination_register()
            if destination is not None:
                self.rename[destination] = uop
            self.rob.append(uop)
            self.pending_issue.append(uop)
            self.fetch_index += 1
            budget -= 1
            progress = True
            if placed.instruction.op is Opcode.FENCE:
                self.fence_active += 1
                break
        return progress

    # ------------------------------------------------------------------
    # Idle-skip support
    # ------------------------------------------------------------------
    def next_event_cycle(self) -> Optional[int]:
        """Earliest scheduled future cycle at which state can change.

        Backed by the event min-heap instead of a full-ROB scan; past
        (and therefore possibly stale) entries are popped lazily.  May
        return a stale cycle belonging to a squashed op — the caller's
        no-progress loop treats such a wakeup as a skippable quiet
        cycle, so timing is unaffected (see ``_event_heap``).
        """
        cycle = self.core.cycle
        heap = self._event_heap
        while heap and heap[0] <= cycle:
            heappop(heap)
        best: Optional[int] = heap[0] if heap else None
        if self.dispatch_stall_until > cycle and self.fetch_index < len(self.trace):
            if best is None or self.dispatch_stall_until < best:
                best = self.dispatch_stall_until
        return best

    def describe_stall(self) -> str:
        """Diagnostic string for deadlock errors."""
        states = {}
        for uop in islice(self.rob, 8):
            states[f"seq{uop.seq}:{uop.instr.op.value}"] = uop.state.value
        return (
            f"fetch_index={self.fetch_index}/{len(self.trace)} "
            f"rob={len(self.rob)} fence_active={self.fence_active} "
            f"stall_until={self.dispatch_stall_until} head_states={states}"
        )
