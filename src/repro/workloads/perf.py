"""Performance workloads: measuring value prediction's benefit.

The paper motivates value predictors with speedups "from 4.8% [11] to
11.2% [9]".  These generators build workloads with controllable value
locality so the benches can reproduce that *shape*: speedup grows with
the fraction of value-predictable misses and lands in the
single-digit-percent band for realistic mixes.

A workload is a pointer-chase-flavoured loop: each iteration loads a
value from a (cold) location and feeds dependent ALU work.  When the
locations hold *stable* values, a trained LVP breaks the
load-to-dependent serialisation; when values change every iteration,
prediction cannot help (and mispredictions hurt).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Tuple

from repro.errors import AttackError
from repro.isa.builder import ProgramBuilder
from repro.isa.program import Program
from repro.memory.hierarchy import MemorySystem
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import Core
from repro.vp.base import ValuePredictor

#: Base address of the workload's data region.
DATA_BASE = 0x800000


@dataclass(frozen=True)
class PerfWorkload:
    """A value-locality workload.

    Attributes:
        program: The straight-line loop program.
        stable_addrs: Addresses whose values stay constant (value-
            predictable once trained).
        volatile_addrs: Addresses whose values the harness mutates
            between runs (never predictable).
    """

    program: Program
    stable_addrs: Tuple[int, ...]
    volatile_addrs: Tuple[int, ...]


def value_locality_workload(
    iterations: int = 40,
    loads_per_iteration: int = 4,
    stable_fraction: float = 1.0,
    dependent_work: int = 12,
    pid: int = 1,
    seed: int = 0,
) -> PerfWorkload:
    """Build a workload with a given fraction of value-stable loads.

    Each iteration flushes and reloads ``loads_per_iteration``
    locations (so every load misses and the VPS is engaged) and runs
    ``dependent_work`` dependent ALU operations on the loaded values.

    Raises:
        AttackError: For a fraction outside [0, 1] or empty shapes.
    """
    if not 0.0 <= stable_fraction <= 1.0:
        raise AttackError(f"stable_fraction must be in [0,1], got {stable_fraction}")
    if iterations < 1 or loads_per_iteration < 1:
        raise AttackError("iterations and loads_per_iteration must be >= 1")
    stable_count = round(loads_per_iteration * stable_fraction)
    addresses = [DATA_BASE + index * 0x100 for index in range(loads_per_iteration)]
    stable = tuple(addresses[:stable_count])
    volatile = tuple(addresses[stable_count:])

    builder = ProgramBuilder(
        f"perf-{stable_fraction:.2f}", pid=pid, base_pc=0x100
    )
    builder.li(1, 1)
    with builder.loop(iterations):
        # Volatile locations are overwritten with the (ever-changing)
        # accumulator each iteration, so their next load returns a
        # value no last-value predictor can have learnt.
        for addr in volatile:
            builder.store(1, imm=addr, tag="mutate")
        builder.fence()
        for addr in addresses:
            builder.flush(imm=addr)
        builder.fence()
        for slot, addr in enumerate(addresses):
            builder.load(2 + slot, imm=addr, tag="perf-load")
        # Dependent work chained off the loaded values.
        for step in range(dependent_work):
            source = 2 + (step % loads_per_iteration)
            builder.add(1, 1, src2=source, tag="work")
        builder.fence()
    return PerfWorkload(
        program=builder.build(), stable_addrs=stable, volatile_addrs=volatile
    )


def run_workload(
    workload: PerfWorkload,
    predictor: ValuePredictor,
    memory: MemorySystem,
    core_config: CoreConfig = None,
    volatile_seed: int = 1,
) -> int:
    """Run the workload once; returns elapsed cycles.

    Stable addresses get fixed values; volatile addresses get fresh
    pseudo-random values so a last-value predictor can never be right
    about them.
    """
    rng = random.Random(volatile_seed)
    for index, addr in enumerate(workload.stable_addrs):
        memory.write_value(workload.program.pid, addr, 1000 + index)
    for addr in workload.volatile_addrs:
        memory.write_value(
            workload.program.pid, addr, rng.randrange(1 << 32)
        )
    core = Core(memory, predictor, core_config or CoreConfig())
    result = core.run(workload.program)
    return result.cycles


def speedup_percent(baseline_cycles: int, vp_cycles: int) -> float:
    """Speedup of the VP run over the baseline, in percent."""
    if vp_cycles <= 0:
        raise AttackError("vp cycles must be positive")
    return 100.0 * (baseline_cycles - vp_cycles) / baseline_cycles
