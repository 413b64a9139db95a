"""The sweep plan of ``repro all`` and the one loop that runs it.

The paper's artifacts decompose into independent *cells* — one
(variant, channel, predictor) experiment or the Figure 7 RSA run.
:func:`sweep_specs` is the plan: it enumerates the cells behind the
chosen artifacts and names each cell's slot in its artifact (a panel
title or a Table III column).  :func:`run_cells` is the loop, at any
worker count: it returns each cell's
:class:`~repro.harness.runner.SupervisedCell` by id, in plan order.
``repro all`` (:func:`repro.harness.persistence.run_all`), the
``table3``/``fig5``/``fig8``/``fig7`` commands and the plain drivers
of :mod:`repro.harness.experiment` all render from those cells, via
:func:`slots` and :func:`table3_grid`.

Every cell is a pure function of its ``(cell_id, seed, policy, fault
profile)`` inputs:

* trial seeds derive only from the cell's base seed and trial index;
* fault-injection draws are keyed by ``(profile, seed, cell_id,
  attempt)`` (order-independent by construction, see
  :mod:`repro.harness.faults`), and they only decide which attempt
  crashes or which dispatch dies: no fault perturbs a measurement;
* retry reseeding mixes in the cell id
  (:func:`repro.harness.runner.cell_seed_index`), so retry streams do
  not depend on which cells ran before.

So a retried cell's result is the clean run at the seed its successful
attempt recorded, and cells can execute in any order, in any process,
and produce byte-identical journal payloads.  :func:`run_cells` reads
each journaled cell once and reuses it verbatim.  With ``workers > 1``
it shards every cell not yet journaled — a lone one too — across a
worker pool (:func:`repro.harness.supervisor.run_pool` — heartbeats,
hang detection, per-cell deadlines, deterministic redispatch), with
the **parent as the single writer**: workers run cells against no
store and ship each cell's journal payload back; the parent journals
it through the :class:`~repro.harness.checkpoint.CheckpointStore`
(atomic per-cell files) and decodes it with
:meth:`~repro.harness.runner.SupervisedCell.from_payload`, the decoder
``--resume`` uses.  At ``workers=1`` the cells run through one
store-bound executor in the parent.

A cell that fails in a worker is decoded from its payload like any
other, and is not journaled, matching the serial executor: the parent
does not run it again, and a ``--resume`` re-attempts it.
"""

from __future__ import annotations

import os
from contextlib import closing
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, TypeVar

from repro.core.attack import ExperimentResult
from repro.core.channels import ChannelType
from repro.core.model import AttackCategory
from repro.core.variants import ALL_VARIANTS, variant_by_name
from repro.errors import HarnessError
from repro.harness.checkpoint import CheckpointStore
from repro.harness.experiment import FIGURE7_EXPONENT, RSA_DRAM
from repro.harness.faults import FaultInjector, FaultProfile
from repro.harness.report import figure_report
from repro.harness.runner import (
    CellClassification,
    ExecutionPolicy,
    ResilientExecutor,
    SupervisedCell,
    _slug,
)
from repro.memory.hierarchy import MemoryConfig
from repro.perf.counters import COUNTERS, PerfCounters
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

#: Default per-cell wall-clock budget in the worker pool.  Generous —
#: the slowest Table III cell is seconds, not minutes — but finite, so
#: a hung worker can no longer stall a sweep forever.
DEFAULT_CELL_TIMEOUT_S = 600.0


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
# The plan
# ----------------------------------------------------------------------

#: Figures 5 and 8 in paper order: artifact -> (attacked variant,
#: figure title, mapped label, unmapped label).
_FIGURES: Dict[str, Tuple[str, str, str, str]] = {
    "fig5": ("Train + Test", "Figure 5: Train + Test attacks",
             "mapped index", "unmapped index"),
    "fig8": ("Test + Hit", "Figure 8: Test + Hit attacks",
             "mapped data", "unmapped data"),
}

#: The four Figure 5/8 panels in paper order: (title, channel, predictor).
_PANELS: Tuple[Tuple[str, ChannelType, str], ...] = (
    ("(1) Timing-Window Channel (no VP)", ChannelType.TIMING_WINDOW, "none"),
    ("(2) Timing-Window Channel (LVP)", ChannelType.TIMING_WINDOW, "lvp"),
    ("(3) Persistent Channel (no VP)", ChannelType.PERSISTENT, "none"),
    ("(4) Persistent Channel (LVP)", ChannelType.PERSISTENT, "lvp"),
)

#: The Table III columns in paper order: (key, channel, predictor).  A
#: variant gets a cell only in the columns whose channel it supports.
_TABLE3_COLUMNS: Tuple[Tuple[str, ChannelType, str], ...] = (
    ("tw_novp", ChannelType.TIMING_WINDOW, "none"),
    ("tw_vp", ChannelType.TIMING_WINDOW, "lvp"),
    ("pc_novp", ChannelType.PERSISTENT, "none"),
    ("pc_vp", ChannelType.PERSISTENT, "lvp"),
)


@dataclass(frozen=True)
class CellSpec:
    """A pickle-safe description of one supervised sweep cell.

    ``kind`` is ``"experiment"`` (a mapped-vs-unmapped attack cell) or
    ``"rsa"`` (the Figure 7 exponent leak).  Variants are referenced by
    their public name and resolved in the executing process, so a spec
    never carries live simulator state across the process boundary.
    ``slot`` names the cell's place in its artifact: a Figure 5/8
    panel title or a Table III column key.
    """

    cell_id: str
    kind: str = "experiment"
    variant: str = ""
    channel: str = ""
    predictor: str = ""
    n_runs: int = 100
    seed: int = 0
    slot: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("experiment", "rsa"):
            raise HarnessError(f"unknown cell kind {self.kind!r}")
        if self.kind == "experiment" and not self.variant:
            raise HarnessError(f"cell {self.cell_id!r} names no variant")

    @property
    def artifact(self) -> str:
        """The artifact the cell belongs to (its cell id's prefix)."""
        return self.cell_id.split("/", 1)[0]


def sweep_specs(
    artifacts: Sequence[str], n_runs: int = 100, seed: int = 0,
) -> List[CellSpec]:
    """The supervised cells behind the chosen ``repro all`` artifacts.

    Figures 5 and 8 come first (four panels each), then the Figure 7
    RSA run (which pins its own seed, 7), then Table III in paper
    order.  Artifacts without cells (``table1``, ``table2``) add none.
    """
    specs: List[CellSpec] = []
    for figure, (variant_name, *_) in _FIGURES.items():
        if figure not in artifacts:
            continue
        for title, channel, predictor in _PANELS:
            specs.append(CellSpec(
                cell_id=f"{figure}/{channel.value}-{predictor}",
                variant=variant_name,
                channel=channel.value,
                predictor=predictor,
                n_runs=n_runs,
                seed=seed,
                slot=title,
            ))
    if "fig7" in artifacts:
        specs.append(CellSpec(cell_id="fig7/rsa", kind="rsa", seed=7))
    if "table3" in artifacts:
        for variant in ALL_VARIANTS:
            slug = _slug(variant.category.value)
            for key, channel, predictor in _TABLE3_COLUMNS:
                if channel not in variant.supported_channels:
                    continue
                specs.append(CellSpec(
                    cell_id=f"table3/{slug}/{key}",
                    variant=variant.name,
                    channel=channel.value,
                    predictor=predictor,
                    n_runs=n_runs,
                    seed=seed,
                    slot=key,
                ))
    return specs


_T = TypeVar("_T")


def _figure_text(
    figure: str, panels: Sequence[Tuple[str, ExperimentResult]],
) -> str:
    """Figure 5 or 8 as text: ``panels`` under the figure's title and
    axis labels."""
    _, title, mapped, unmapped = _FIGURES[figure]
    return figure_report(
        title, list(panels), mapped_label=mapped, unmapped_label=unmapped,
    )


def slots(
    specs: Sequence[CellSpec], values: Mapping[str, _T], artifact: str,
) -> List[Tuple[str, _T]]:
    """``(slot, value)`` for each cell of ``artifact``, in plan order.

    ``values`` maps cell ids to whatever the caller renders: the cells
    :func:`run_cells` returned, or their results.
    """
    return [
        (spec.slot, values[spec.cell_id])
        for spec in specs if spec.artifact == artifact
    ]


def table3_grid(
    specs: Sequence[CellSpec], values: Mapping[str, _T],
) -> Dict[AttackCategory, Dict[str, Optional[_T]]]:
    """Table III's values by category and column, in paper order.

    A column whose channel a variant does not support stays ``None``.
    """
    grid: Dict[AttackCategory, Dict[str, Optional[_T]]] = {
        variant.category: {key: None for key, _, _ in _TABLE3_COLUMNS}
        for variant in ALL_VARIANTS
    }
    for spec in specs:
        if spec.artifact == "table3":
            category = variant_by_name(spec.variant).category
            grid[category][spec.slot] = values[spec.cell_id]
    return grid


def execute_spec(spec: CellSpec, executor: ResilientExecutor) -> SupervisedCell:
    """Run one spec through an executor."""
    if spec.kind == "rsa":
        return executor.run_rsa_supervised(
            spec.cell_id,
            FIGURE7_EXPONENT,
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
    return {
        "payload": cell.to_payload(),
        "counters": PerfCounters.delta(before, COUNTERS.snapshot()),
        # Batched-backend fallbacks are journaled process-locally; ship
        # this cell's events so the parent sees the sweep-wide truth.
        "fallbacks": fallback_journal()[fallback_mark:],
    }


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------

def run_cells(
    specs: Sequence[CellSpec],
    store: Optional[CheckpointStore],
    policy: Optional[ExecutionPolicy] = None,
    *,
    workers: int = 1,
    fault_profile: Optional[FaultProfile] = None,
    fault_seed: int = 0,
    cell_timeout_s: Optional[float] = DEFAULT_CELL_TIMEOUT_S,
) -> Dict[str, SupervisedCell]:
    """Run ``specs``, journaling into ``store``; their cells by id.

    The returned mapping holds one cell per spec, in plan order.
    Cells already journaled in ``store`` are read once and reused
    verbatim (resume semantics), and every completed cell is journaled
    as it completes; failed cells are not journaled, so a resumed sweep
    re-attempts them.

    With ``workers > 1`` every cell not yet journaled runs on a worker
    pool (:func:`repro.harness.supervisor.run_pool`), and the parent is
    the only process that writes the journal.  The pool adds a per-cell
    wall-clock deadline (``cell_timeout_s``), heartbeat-based hang
    detection, and deterministic redispatch after a worker death — a
    redispatched cell reruns the identical spec and ships the
    byte-identical payload.  A cell that exhausts its dispatches or
    raises out of the executor fails the sweep loudly.  Every exit
    (success, failure, ``KeyboardInterrupt``) kills the pool's
    workers; the completed cells are already journaled, so after a
    Ctrl-C ``--resume`` picks up from the journal.

    At ``workers=1`` the cells run in this process through one executor
    bound to ``store``, in plan order.  No wall-clock deadline applies
    there: the parent cannot preempt itself.

    The cells and their journal payloads are byte-identical for any
    worker count; the determinism tests hash them across worker counts
    to enforce this.
    """
    if workers < 1:
        raise HarnessError(f"workers must be >= 1, got {workers}")
    policy = policy or ExecutionPolicy()
    executor = ResilientExecutor(
        policy,
        injector=(
            FaultInjector(fault_profile, seed=fault_seed)
            if fault_profile is not None else None
        ),
        store=store,
    )
    # Each journaled cell is read once: here when the pool takes the
    # others, else where the executor reaches it.
    journaled: Dict[str, Optional[SupervisedCell]] = {}
    pooled: Dict[str, SupervisedCell] = {}
    if workers > 1:
        journaled = {spec.cell_id: executor._journaled(spec.cell_id) for spec in specs}
        pending = [spec for spec in specs if journaled[spec.cell_id] is None]
        if pending:
            pooled = _run_pool(
                pending, store, policy, workers, fault_profile, fault_seed,
                cell_timeout_s,
            )
    cells: Dict[str, SupervisedCell] = {}
    for spec in specs:
        cell = pooled.get(spec.cell_id)
        if cell is None:
            cell = journaled.get(spec.cell_id)
            if cell is None:
                cell = execute_spec(spec, executor)
            else:
                executor._enforce_static_agreement(cell, spec.predictor)
        cells[spec.cell_id] = cell
    return cells


def _run_pool(
    pending: Sequence[CellSpec],
    store: Optional[CheckpointStore],
    policy: ExecutionPolicy,
    workers: int,
    fault_profile: Optional[FaultProfile],
    fault_seed: int,
    cell_timeout_s: Optional[float],
) -> Dict[str, SupervisedCell]:
    """Run ``pending`` on a worker pool; its cells by id."""
    from repro.harness.supervisor import run_pool
    from repro.stats import _special

    # Workers fork from this process.  Load the special functions the
    # t-tests need and build the sweep's backend (numpy, under batched)
    # once here, so that every worker inherits them instead of
    # importing its own copy.
    _special.load()
    get_backend(resolve_backend_name(policy.backend))

    cells: Dict[str, SupervisedCell] = {}
    outcomes = run_pool(
        {spec.cell_id: spec for spec in pending},
        _run_spec_in_worker,
        workers=workers,
        init_fn=_init_worker,
        init_args=(policy, fault_profile, fault_seed),
        job_timeout_s=cell_timeout_s,
        fault_profile=fault_profile,
        fault_seed=fault_seed,
    )
    with closing(outcomes):
        for outcome in outcomes:
            if outcome.status != "done":  # "error" or "lost"
                raise HarnessError(
                    f"cell {outcome.task_id!r} {outcome.status} after "
                    f"{outcome.dispatches} dispatch(es): {outcome.error}"
                )
            shipped = outcome.value
            # Fold the worker's counters and fallbacks into this
            # process's, so a caller's before/after snapshot and
            # `fallback_journal()` see the whole sweep regardless of
            # sharding.
            COUNTERS.add(shipped["counters"])
            record_fallbacks(shipped["fallbacks"])
            cell = SupervisedCell.from_payload(shipped["payload"])
            if (store is not None
                    and cell.classification is not CellClassification.FAILED):
                # Flush incrementally: an interrupt or crash later
                # loses nothing already completed.
                store.save(outcome.task_id, shipped["payload"])
            cells[outcome.task_id] = cell
    return cells
