"""Process-parallel execution of supervised sweep cells.

The paper's artifacts decompose into independent *cells* — one
(variant, channel, predictor) experiment or the Figure 7 RSA run —
and every cell is a pure function of its ``(cell_id, seed, policy,
fault profile)`` inputs:

* trial seeds derive only from the cell's base seed and trial index;
* fault-injection draws are keyed by ``(profile, seed, cell_id,
  attempt)`` (order-independent by construction, see
  :mod:`repro.harness.faults`), and they only decide which attempt
  crashes or which dispatch dies: no fault perturbs a measurement;
* retry reseeding mixes in the cell id
  (:func:`repro.harness.runner.cell_seed_index`), so retry streams do
  not depend on which cells ran before.

So a retried cell's result is the clean run at the seed its successful
attempt recorded.

Cells can therefore execute in any order, in any process, and produce
byte-identical journal payloads.  This module exploits that: it shards
the cell list across a supervised persistent worker pool
(:mod:`repro.harness.supervisor` — heartbeats, hang detection, per-cell
deadlines, restart backoff), with the **parent as the single writer**
— workers run cells against no store and ship the journal payload
back; the parent persists each payload through the existing
:class:`~repro.harness.checkpoint.CheckpointStore` (atomic per-cell
files).  A later serial pass (the artifact assembly in
:func:`repro.harness.persistence.run_all`) then finds every cell
already journaled and reuses it verbatim, which is exactly the
checkpoint-resume path — so parallel runs inherit the resume
machinery's byte-identity guarantee instead of re-implementing it.

Failed cells are deliberately **not** journaled (matching the serial
executor): the assembly pass re-attempts them, deterministically
reproducing the same failure record.
"""

from __future__ import annotations

import os
import queue
import signal
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.channels import ChannelType
from repro.core.variants import variant_by_name
from repro.errors import HarnessError
from repro.harness.checkpoint import CheckpointStore
from repro.harness.faults import FaultInjector, FaultProfile
from repro.harness.runner import (
    CellClassification,
    ExecutionPolicy,
    ResilientExecutor,
    SupervisedCell,
    _PANEL_SPECS,
    table3_plan,
)
from repro.memory.hierarchy import MemoryConfig
from repro.perf.counters import COUNTERS, PerfCounters
from repro.perf.observe import now
from repro.sim import (
    clear_fallback_journal,
    fallback_journal,
    get_backend,
    record_fallbacks,
    resolve_backend_name,
)

#: Environment variable consulted for a default worker count (used by
#: the CI matrix job to run the whole quick suite under ``--workers 2``
#: without threading a flag through every entry point).
WORKERS_ENV = "REPRO_WORKERS"

#: Default per-cell wall-clock budget in the parallel path.  Generous —
#: the slowest Table III cell is seconds, not minutes — but finite, so
#: a hung worker can no longer stall a sweep forever.
DEFAULT_CELL_TIMEOUT_S = 600.0

#: Dispatch attempts per cell before the sweep gives up loudly.
#: Redispatches are deterministic (the cell payload is a pure function
#: of its spec), so retrying after a worker death cannot change the
#: result — only recover it.
DEFAULT_CELL_DISPATCHES = 5


def default_workers() -> int:
    """Worker count from :data:`WORKERS_ENV`, else 1 (serial)."""
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        raise HarnessError(
            f"{WORKERS_ENV} must be an integer, got {raw!r}"
        ) from None
    if workers < 1:
        raise HarnessError(f"{WORKERS_ENV} must be >= 1, got {workers}")
    return workers


# ----------------------------------------------------------------------
# Cell specifications
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CellSpec:
    """A pickle-safe description of one supervised sweep cell.

    ``kind`` is ``"experiment"`` (a mapped-vs-unmapped attack cell) or
    ``"rsa"`` (the Figure 7 exponent leak).  Variants are referenced by
    their public name and resolved in the executing process, so a spec
    never carries live simulator state across the process boundary.
    """

    cell_id: str
    kind: str = "experiment"
    variant: str = ""
    channel: str = ""
    predictor: str = ""
    n_runs: int = 100
    seed: int = 0
    exponent: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("experiment", "rsa"):
            raise HarnessError(f"unknown cell kind {self.kind!r}")
        if self.kind == "experiment" and not self.variant:
            raise HarnessError(f"cell {self.cell_id!r} names no variant")


def sweep_specs(
    artifacts: Sequence[str],
    n_runs: int = 100,
    seed: int = 0,
    predictor: str = "lvp",
) -> List[CellSpec]:
    """The supervised cells behind the chosen ``repro all`` artifacts.

    Mirrors the enumeration of
    :func:`~repro.harness.runner.figure_panels_supervised` and
    :func:`~repro.harness.runner.figure7_supervised`, and enumerates
    the same :func:`~repro.harness.runner.table3_plan` as
    :func:`~repro.harness.runner.table3_supervised` — same cell ids,
    same per-cell parameters — so prefilling these specs populates
    exactly the journal entries the serial assembly pass will look up.
    """
    specs: List[CellSpec] = []
    figure_variants = {"fig5": "Train + Test", "fig8": "Test + Hit"}
    for figure, variant_name in figure_variants.items():
        if figure not in artifacts:
            continue
        for _, channel, panel_predictor in _PANEL_SPECS:
            specs.append(CellSpec(
                cell_id=f"{figure}/{channel.value}-{panel_predictor}",
                variant=variant_name,
                channel=channel.value,
                predictor=panel_predictor,
                n_runs=n_runs,
                seed=seed,
            ))
    if "fig7" in artifacts:
        from repro.harness.experiment import FIGURE7_EXPONENT

        specs.append(CellSpec(
            cell_id="fig7/rsa", kind="rsa", seed=7,
            exponent=FIGURE7_EXPONENT,
        ))
    if "table3" in artifacts:
        for cell_id, variant, _, channel, cell_predictor in table3_plan(
            predictor
        ):
            specs.append(CellSpec(
                cell_id=cell_id,
                variant=variant.name,
                channel=channel.value,
                predictor=cell_predictor,
                n_runs=n_runs,
                seed=seed,
            ))
    return specs


def execute_spec(spec: CellSpec, executor: ResilientExecutor) -> SupervisedCell:
    """Run one spec through an executor, exactly as the serial drivers do."""
    if spec.kind == "rsa":
        from repro.harness.experiment import RSA_DRAM

        return executor.run_rsa_supervised(
            spec.cell_id,
            spec.exponent if spec.exponent is not None else 0,
            seed=spec.seed,
            memory_config=MemoryConfig(dram=RSA_DRAM),
        )
    return executor.run_cell_supervised(
        spec.cell_id,
        variant_by_name(spec.variant),
        ChannelType(spec.channel),
        spec.predictor,
        spec.n_runs,
        spec.seed,
    )


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

_WORKER_EXECUTOR: Optional[ResilientExecutor] = None


def _init_worker(
    policy: ExecutionPolicy,
    profile: Optional[FaultProfile],
    fault_seed: int,
) -> None:
    """Build the per-process executor (no store: the parent journals)."""
    global _WORKER_EXECUTOR
    injector = (
        FaultInjector(profile, seed=fault_seed)
        if profile is not None else None
    )
    _WORKER_EXECUTOR = ResilientExecutor(policy, injector=injector, store=None)
    COUNTERS.reset()
    clear_fallback_journal()


def _run_spec_in_worker(spec: CellSpec) -> Dict[str, object]:
    """Execute one cell; return its journal payload + perf telemetry."""
    assert _WORKER_EXECUTOR is not None, "worker initializer did not run"
    before = COUNTERS.snapshot()
    fallback_mark = len(fallback_journal())
    cell = execute_spec(spec, _WORKER_EXECUTOR)
    failed = cell.classification is CellClassification.FAILED
    return {
        "cell_id": spec.cell_id,
        "failed": failed,
        "payload": None if failed else cell.to_payload(),
        "counters": PerfCounters.delta(before, COUNTERS.snapshot()),
        # Batched-backend fallbacks are journaled process-locally; ship
        # this cell's events so the parent sees the sweep-wide truth.
        "fallbacks": fallback_journal()[fallback_mark:],
    }


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------

@dataclass
class SweepStats:
    """Telemetry of one parallel (or serial-fallback) prefill pass."""

    cells_total: int = 0
    cells_cached: int = 0
    cells_run: int = 0
    cells_failed: int = 0
    elapsed_s: float = 0.0
    counters: Dict[str, int] = field(default_factory=dict)


def run_cells(
    specs: Sequence[CellSpec],
    store: Optional[CheckpointStore],
    policy: Optional[ExecutionPolicy] = None,
    *,
    workers: int = 1,
    fault_profile: Optional[FaultProfile] = None,
    fault_seed: int = 0,
    cell_timeout_s: Optional[float] = DEFAULT_CELL_TIMEOUT_S,
    max_dispatches: int = DEFAULT_CELL_DISPATCHES,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepStats:
    """Execute ``specs``, journaling results into ``store``.

    With ``workers > 1`` the cells run on a supervised persistent
    worker pool (:class:`repro.harness.supervisor.WorkerSupervisor`) and
    the parent is the only process that writes the checkpoint journal.
    The supervisor adds the robustness the bare process pool lacked: a
    per-cell wall-clock deadline (``cell_timeout_s``), heartbeat-based
    hang detection, and deterministic redispatch after a worker death —
    a redispatched cell reruns the identical spec and journals the
    byte-identical payload.  A cell that exhausts ``max_dispatches``
    or raises out of the executor fails the sweep loudly.  Every exit
    (success, failure, SIGINT) stops the pool, cancelling whatever is
    still pending or in flight.

    With ``workers == 1`` the cells run in-process through an executor
    bound directly to the store — the exact serial code path, kept as
    the fallback so the two modes cannot drift apart.  (No wall-clock
    deadline applies there: the parent cannot preempt itself.)

    When called from the main thread with ``workers > 1``, SIGINT is
    handled cleanly: outstanding cells are cancelled, already-completed
    payloads stay journaled (flushed incrementally), and
    ``KeyboardInterrupt`` is raised so the CLI exits nonzero and
    ``--resume`` picks up from the flushed journal.

    Cells already present in the store are skipped (resume semantics).
    The journal payloads are byte-identical for any worker count; the
    determinism tests hash them across worker counts to enforce this.
    """
    if workers < 1:
        raise HarnessError(f"workers must be >= 1, got {workers}")
    policy = policy or ExecutionPolicy.compat()
    stats = SweepStats(cells_total=len(specs))
    pending: List[CellSpec] = []
    for spec in specs:
        if store is not None and store.has(spec.cell_id):
            stats.cells_cached += 1
        else:
            pending.append(spec)
    started = now()
    counters = PerfCounters()

    if workers == 1 or len(pending) <= 1:
        injector = (
            FaultInjector(fault_profile, seed=fault_seed)
            if fault_profile is not None else None
        )
        serial = ResilientExecutor(policy, injector=injector, store=store)
        before = COUNTERS.snapshot()
        for spec in pending:
            cell = execute_spec(spec, serial)
            stats.cells_run += 1
            if cell.classification is CellClassification.FAILED:
                stats.cells_failed += 1
            if progress is not None:
                progress(f"{spec.cell_id}: {cell.classification.value}")
        stats.elapsed_s = now() - started
        counters.add(PerfCounters.delta(before, COUNTERS.snapshot()))
        stats.counters = counters.snapshot()
        return stats

    from repro.harness.supervisor import SupervisorPolicy, WorkerSupervisor
    from repro.stats import _special

    # Workers fork from this process.  Load the special functions the
    # t-tests need and build the sweep's backend (numpy, under batched)
    # once here, so that every worker inherits them instead of
    # importing its own copy.
    _special.load()
    get_backend(resolve_backend_name(policy.backend))

    outcomes: "queue.Queue" = queue.Queue()
    supervisor = WorkerSupervisor(
        SupervisorPolicy(
            workers=workers,
            job_timeout_s=cell_timeout_s,
            max_dispatches=max_dispatches,
        ),
        run_fn=_run_spec_in_worker,
        init_fn=_init_worker,
        init_args=(policy, fault_profile, fault_seed),
        fault_profile=fault_profile,
        fault_seed=fault_seed,
    ).start()

    interrupted = threading.Event()
    previous_handler: Any = None
    in_main_thread = (
        threading.current_thread() is threading.main_thread()
    )
    if in_main_thread:
        # The handler only flags the interrupt: it runs on this thread,
        # which may hold the supervisor's inbox lock mid-submit.  The
        # loop below notices the flag within one poll and the
        # ``finally`` stops the pool.
        def _on_sigint(signum: int, frame: object) -> None:
            interrupted.set()

        previous_handler = signal.signal(signal.SIGINT, _on_sigint)

    failure: Optional[str] = None
    try:
        for spec in pending:
            supervisor.submit(spec.cell_id, spec, outcomes.put)
        received = 0
        while received < len(pending) and not interrupted.is_set():
            try:
                outcome = outcomes.get(timeout=0.2)
            except queue.Empty:
                continue
            received += 1
            if outcome.status == "done":
                result = outcome.value
                stats.cells_run += 1
                counters.add(result["counters"])
                # Fold the worker's fallbacks into this process's
                # journal, so `fallback_journal()` stays the one
                # source of truth regardless of sharding.
                record_fallbacks(result.get("fallbacks") or [])
                if result["failed"]:
                    stats.cells_failed += 1
                elif store is not None:
                    # Flush incrementally: an interrupt or crash later
                    # loses nothing already completed.
                    store.save(str(result["cell_id"]), result["payload"])
                if progress is not None:
                    status = "failed" if result["failed"] else "done"
                    progress(f"{outcome.task_id}: {status}")
            else:  # "error" or "lost": fail the sweep loudly
                failure = (
                    f"cell {outcome.task_id!r} {outcome.status} after "
                    f"{outcome.dispatches} dispatch(es): {outcome.error}"
                )
                break
    finally:
        supervisor.stop()
        supervisor.join(timeout=30.0)
        if in_main_thread:
            signal.signal(signal.SIGINT, previous_handler)

    stats.elapsed_s = now() - started
    stats.counters = counters.snapshot()
    # Fold worker counters into this process's totals so a caller's
    # before/after snapshot sees the whole sweep regardless of sharding.
    COUNTERS.add(stats.counters)
    if failure is not None:
        raise HarnessError(failure)
    if interrupted.is_set():
        raise KeyboardInterrupt
    return stats
