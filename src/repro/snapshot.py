"""Machine snapshot/fork engine.

Forking simulator state from a checkpoint instead of replaying it is
the standard trick in architectural simulation (gem5's
checkpoint/restore); here it removes the dominant cost left after the
warm-machine reset protocol: every trial of an attack experiment
re-simulates the identical train/modify prologue before its single
measured trigger window.

The engine is a thin composition layer.  Each stateful component —
:class:`~repro.memory.hierarchy.MemorySystem` (caches, TLB, DRAM,
replacement metadata, backing values), :class:`~repro.pipeline.core.Core`
and every :class:`~repro.vp.base.ValuePredictor` — exposes its own
``snapshot() -> opaque state`` / ``restore(state)`` pair built from
structural sharing (tuples + shallow dict copies, never a deepcopy);
:func:`snapshot_machine` bundles the three captures into a
:class:`MachineSnapshot` and :func:`restore_machine` forks a machine
back to that point in ~dictionary-copy time.

Determinism preconditions (audited by ``--audit-snapshots``):

* snapshots are taken at a **run boundary** — the core holds no
  in-flight ``_RunState`` between ``run_concurrent`` calls, so its
  persistent state is four counters;
* the machine's shared regions were registered **before** the capture
  (the address mapper is stateless and deliberately excluded, exactly
  as in the warm-machine reset protocol);
* nothing outside the machine feeds state into the captured
  components; per-trial random streams (jitter, and the R-type
  defense's window draws) are re-seeded from the trial seed after
  the restore.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.hierarchy import MemorySystem
from repro.pipeline.core import Core

#: Nominal bytes charged per atomic value in a captured state tree;
#: a deterministic stand-in for ``sys.getsizeof`` (which varies across
#: Python builds and would make perf payloads platform-dependent).
_BYTES_PER_SLOT = 8


def approx_state_bytes(state: object) -> int:
    """Deterministic size estimate of a captured state tree.

    Counts atomic slots (ints, floats, strings, Nones, booleans) at
    :data:`_BYTES_PER_SLOT` bytes each, walking tuples, lists, dicts,
    sets and frozensets.  Used for the ``snapshot_bytes_copied`` perf
    counter; the estimate is stable across platforms and Python
    versions, unlike real allocator numbers.
    """
    total = 0
    stack = [state]
    while stack:
        node = stack.pop()
        if isinstance(node, (tuple, list, set, frozenset)):
            stack.extend(node)
        elif isinstance(node, dict):
            stack.extend(node.keys())
            stack.extend(node.values())
        else:
            total += _BYTES_PER_SLOT
    return total


@dataclass(frozen=True)
class MachineSnapshot:
    """An immutable capture of a whole simulated machine.

    Attributes:
        memory_state: :meth:`MemorySystem.snapshot` payload.
        core_state: :meth:`Core.snapshot` payload (four counters).
        predictor_state: :meth:`ValuePredictor.snapshot` payload of the
            core's installed predictor chain (wrappers included).
        cycle: The core's cycle counter at capture time — the simulated
            work a fork *skips*, feeding the ``snapshot_cycles_avoided``
            perf counter.
        approx_bytes: Deterministic size estimate of the capture (see
            :func:`approx_state_bytes`).
    """

    memory_state: object
    core_state: object
    predictor_state: object
    cycle: int
    approx_bytes: int


def snapshot_machine(memory: MemorySystem, core: Core) -> MachineSnapshot:
    """Capture machine state at a run boundary.

    Raises:
        NotImplementedError: When the installed predictor (chain) does
            not implement the snapshot protocol; callers treat this as
            "fall back to full replay".
    """
    memory_state = memory.snapshot()
    core_state = core.snapshot()
    predictor_state = core.predictor.snapshot()
    state_bundle = (memory_state, core_state, predictor_state)
    return MachineSnapshot(
        memory_state=memory_state,
        core_state=core_state,
        predictor_state=predictor_state,
        cycle=core.cycle,
        approx_bytes=approx_state_bytes(state_bundle),
    )


def restore_machine(
    memory: MemorySystem, core: Core, snapshot: MachineSnapshot
) -> None:
    """Fork ``memory``/``core`` back to a captured point, in place.

    The machine must have the same structure (config, registered
    shared regions, predictor chain shape) as at capture time; only
    mutable state is written.
    """
    memory.restore(snapshot.memory_state)
    core.restore(snapshot.core_state)
    core.predictor.restore(snapshot.predictor_state)
