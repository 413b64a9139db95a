"""One loop that drives a pool of forked worker processes.

:func:`run_pool` runs the cells of ``repro all --workers N``
(:func:`repro.harness.parallel.run_cells`).  It is a generator that the
caller's own thread drives: it forks the workers, gives each idle
worker the next task, waits on every worker pipe at once with
:func:`multiprocessing.connection.wait`, and yields each task's
:class:`TaskOutcome` as it settles.  It differs from a bare
``ProcessPoolExecutor`` in exactly the ways a long sweep needs:

* **Heartbeats** — every worker beats over its pipe every
  :data:`HEARTBEAT_INTERVAL_S`; a worker silent for
  :data:`HEARTBEAT_TIMEOUT_S` is hung (not merely slow), and is killed
  and replaced.
* **Per-job wall-clock timeouts** — ``CoreConfig.max_cycles`` bounds a
  trial in *simulated* time; ``job_timeout_s`` is the process-level
  analogue: a worker whose task overruns it is killed and replaced.
* **Deterministic redispatch** — the task of a worker that died, hung
  or overran is sent again *unchanged*, up to :data:`MAX_DISPATCHES`
  dispatches: cell results are pure functions of ``(cell_id, seed,
  policy, fault profile)``, so the redispatch produces the
  byte-identical payload a clean run would (unlike cell-level retries,
  which deliberately reseed).  ``tests/test_parallel_faults.py``
  asserts this end to end.
* **A worker that fails without a task ends the pool** — a worker that
  dies or goes silent while it holds no task (its ``init_fn`` raised,
  say) would fail the same way again, so the pool raises
  :class:`~repro.errors.HarnessError` instead of replacing it.

The pool never runs more workers than it has unsettled tasks.  Wrap
the generator in :func:`contextlib.closing`: then every exit — the
last outcome, an exception in the caller's loop, a
``KeyboardInterrupt`` out of the wait — kills every worker.  The
parent starts no thread and installs no signal handler; the workers
ignore SIGINT, so a Ctrl-C interrupts only the caller.  All host-time
reads go through :func:`repro.perf.observe.now` (deadlines only —
nothing simulated ever sees them).

Process-level fault injection (the ``worker-kill`` profile and the
``kill_cells`` / ``hang_cells`` fields of a
:class:`~repro.harness.faults.FaultProfile`) happens *inside the
worker*, before the task runs, so the injected failures exercise
precisely the recovery above while leaving the simulation untouched.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from multiprocessing import get_all_start_methods, get_context
from typing import (
    Any, Callable, Deque, Iterator, List, Mapping, Optional, Tuple,
)

from repro.errors import HarnessError, ReproError
from repro.harness.faults import FaultInjector, FaultProfile
from repro.perf.observe import now

#: Exit code used by injected worker kills (distinguishable from real
#: crashes in logs; the pool treats both identically).
INJECTED_KILL_EXIT = 137

#: Worker beat period.
HEARTBEAT_INTERVAL_S = 0.05

#: A worker silent for this long is declared hung and killed: 40 beat
#: periods, so a slow stretch of a busy host is not taken for a hang.
HEARTBEAT_TIMEOUT_S = 2.0

#: Dispatches per task before the pool gives it up as lost.
MAX_DISPATCHES = 5


@dataclass(frozen=True)
class TaskOutcome:
    """How one task settled.

    ``status`` is one of:

    * ``"done"`` — ``run_fn`` returned ``value``;
    * ``"error"`` — ``run_fn`` raised a :class:`ReproError`
      (deterministic task failure; not redispatched);
    * ``"lost"`` — worker deaths, hangs or timeouts used up the task's
      :data:`MAX_DISPATCHES` dispatches.
    """

    task_id: str
    status: str
    value: Any = None
    error: Optional[str] = None
    dispatches: int = 0


@dataclass
class _Task:
    task_id: str
    payload: Any
    dispatches: int = 0


@dataclass
class _Worker:
    """One forked worker, as the parent sees it."""

    proc: Any
    conn: Any
    heard: float  # host time of its last message
    ready: bool = False  # its init_fn has returned
    task: Optional[_Task] = None
    deadline: Optional[float] = None  # when ``task`` overruns


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

def _worker_main(
    conn: Any,
    init_fn: Optional[Callable[..., None]],
    init_args: Tuple[Any, ...],
    run_fn: Callable[[Any], Any],
    profile: Optional[FaultProfile],
    fault_seed: int,
) -> None:
    """Worker process entry: beat, receive tasks, run, reply.

    Process-level faults are drawn here, deterministically keyed by
    ``(profile, seed, task_id, dispatch)``, *before* the task runs —
    so an injected kill or hang never leaves a partially-perturbed
    simulation behind.
    """
    # Ctrl-C is the parent's to handle: it kills the workers itself.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    stop_beats = threading.Event()
    send_lock = threading.Lock()

    def _send(message: Tuple[Any, ...]) -> None:
        with send_lock:
            conn.send(message)

    def _beat() -> None:
        while not stop_beats.wait(HEARTBEAT_INTERVAL_S):
            try:
                _send(("hb",))
            except OSError:
                return

    # Beat from the first instant so a slow init_fn is never mistaken
    # for a hang.
    threading.Thread(target=_beat, daemon=True).start()
    if init_fn is not None:
        init_fn(*init_args)
    injector = (
        FaultInjector(profile, seed=fault_seed)
        if profile is not None and profile.perturbs_process else None
    )
    _send(("ready",))
    while True:
        try:
            task_id, payload, dispatch = conn.recv()
        except (EOFError, OSError):
            return
        fault = injector.process_fault(task_id, dispatch) if injector else None
        if fault == "kill":
            os._exit(INJECTED_KILL_EXIT)
        if fault == "hang":
            # A real hang stops the beats too: freeze completely so the
            # parent's heartbeat deadline is what detects us.
            stop_beats.set()
            time.sleep(3600.0)
            os._exit(INJECTED_KILL_EXIT)
        try:
            value = run_fn(payload)
        except ReproError as exc:
            _send(("error", f"{type(exc).__name__}: {exc}"))
        else:
            _send(("done", value))


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------

def run_pool(
    tasks: Mapping[str, Any],
    run_fn: Callable[[Any], Any],
    *,
    workers: int,
    init_fn: Optional[Callable[..., None]] = None,
    init_args: Tuple[Any, ...] = (),
    job_timeout_s: Optional[float] = None,
    fault_profile: Optional[FaultProfile] = None,
    fault_seed: int = 0,
) -> Iterator[TaskOutcome]:
    """Run ``tasks`` (payloads by task id) on up to ``workers`` forked
    processes, yielding each :class:`TaskOutcome` as it settles.

    ``init_fn(*init_args)`` runs once in each worker and
    ``run_fn(payload)`` runs one task; both must be module-level
    callables.  Tasks are dispatched in ``tasks`` order.
    ``job_timeout_s`` bounds one dispatch (``None``: no bound).

    Raises:
        HarnessError: For ``workers < 1`` or ``job_timeout_s <= 0``,
            and when a worker dies or goes silent while it holds no
            task.
    """
    if workers < 1:
        raise HarnessError(f"workers must be >= 1, got {workers}")
    if job_timeout_s is not None and job_timeout_s <= 0:
        raise HarnessError("job_timeout_s must be > 0 when set")
    context = (
        get_context("fork") if "fork" in get_all_start_methods()
        else get_context()
    )
    worker_args = (init_fn, init_args, run_fn, fault_profile, fault_seed)
    pending: Deque[_Task] = deque(
        _Task(task_id, payload) for task_id, payload in tasks.items()
    )
    unsettled = len(pending)
    pool: List[_Worker] = []
    settled: List[TaskOutcome] = []
    try:
        while True:
            # Staff the pool before handing the caller the outcomes
            # that settled last round, so the workers keep busy while
            # it handles them.
            idle = [worker for worker in pool if worker.task is None]
            for worker in idle[:max(0, len(pool) - unsettled)]:
                pool.remove(worker)
                _kill(worker)
            while len(pool) < min(workers, unsettled):
                pool.append(_spawn(context, worker_args))
            for worker in pool:
                if pending and worker.ready and worker.task is None:
                    _dispatch(worker, pending.popleft(), job_timeout_s)
            yield from settled
            if not unsettled:
                return
            deadlines = [worker.heard + HEARTBEAT_TIMEOUT_S for worker in pool]
            deadlines += [
                worker.deadline for worker in pool
                if worker.deadline is not None
            ]
            ready = mp_connection.wait(
                [worker.conn for worker in pool],
                timeout=max(0.0, min(deadlines) - now()),
            )
            settled = []
            for worker in list(pool):
                why = _read(worker, settled) if worker.conn in ready else None
                why = why or _overdue(worker)
                if why is None:
                    continue
                pool.remove(worker)
                code = _kill(worker)
                task = worker.task
                if task is None:
                    raise HarnessError(
                        f"a pool worker {why} while it held no task "
                        f"(exit code {code})"
                    )
                if task.dispatches < MAX_DISPATCHES:
                    pending.appendleft(task)
                    continue
                settled.append(TaskOutcome(
                    task_id=task.task_id, status="lost",
                    error=(
                        f"dispatch budget exhausted after "
                        f"{task.dispatches} attempts; the last worker {why}"
                    ),
                    dispatches=task.dispatches,
                ))
            unsettled -= len(settled)
    finally:
        for worker in pool:
            _kill(worker)


def _spawn(context: Any, worker_args: Tuple[Any, ...]) -> _Worker:
    parent_conn, child_conn = context.Pipe()
    proc = context.Process(
        target=_worker_main, args=(child_conn, *worker_args), daemon=True,
    )
    proc.start()
    child_conn.close()
    return _Worker(proc=proc, conn=parent_conn, heard=now())


def _dispatch(
    worker: _Worker, task: _Task, job_timeout_s: Optional[float],
) -> None:
    worker.task = task
    task.dispatches += 1
    if job_timeout_s is not None:
        worker.deadline = now() + job_timeout_s
    try:
        worker.conn.send((task.task_id, task.payload, task.dispatches - 1))
    except OSError:
        pass  # it died: the wait sees its pipe close


def _kill(worker: _Worker) -> Optional[int]:
    """Kill and reap ``worker`` and close its pipe; its exit code."""
    worker.proc.kill()
    worker.proc.join(1.0)
    worker.conn.close()
    return worker.proc.exitcode


def _read(worker: _Worker, settled: List[TaskOutcome]) -> Optional[str]:
    """Take every message ``worker`` has sent, settling its task on a
    reply; why it is lost, if its pipe closed."""
    worker.heard = now()
    try:
        while worker.conn.poll():
            kind, *body = worker.conn.recv()
            if kind == "ready":
                worker.ready = True
            elif kind != "hb":
                task = worker.task
                assert task is not None, "a reply answers a dispatch"
                worker.task = worker.deadline = None
                settled.append(TaskOutcome(
                    task_id=task.task_id, status=kind,
                    value=body[0] if kind == "done" else None,
                    error=body[0] if kind == "error" else None,
                    dispatches=task.dispatches,
                ))
    except (EOFError, OSError):
        return "died"
    return None


def _overdue(worker: _Worker) -> Optional[str]:
    """Why ``worker`` is past a deadline, if it is."""
    current = now()
    if current - worker.heard > HEARTBEAT_TIMEOUT_S:
        return "went silent"
    if worker.deadline is not None and current > worker.deadline:
        return "overran the job timeout"
    return None
