"""Supervised persistent worker pool with heartbeats and restarts.

The pool runs the cells of ``repro all --workers N``
(:func:`repro.harness.parallel.run_cells`).  It differs from a bare
``ProcessPoolExecutor`` in exactly the ways a long sweep needs:

* **Heartbeats** — every worker beats over its pipe on a fixed
  interval; a lapsed heartbeat deadline means the worker is hung (not
  merely slow) and it is killed and replaced.
* **Per-job wall-clock timeouts** — ``max_trial_cycles`` bounds a trial
  in *simulated* time; the supervisor adds the process-level analogue,
  killing workers whose current job exceeds its wall-clock budget.
* **Automatic restart with capped exponential backoff** — a crashing
  worker slot backs off ``base * 2**streak`` (capped) between
  respawns.
* **Deterministic redispatch** — a job interrupted by a process-level
  fault is re-sent *unchanged*: cell results are pure functions of
  ``(cell_id, seed, policy, fault profile)``, so the redispatch
  produces the byte-identical payload a clean run would (unlike
  cell-level retries, which deliberately reseed).
  ``tests/test_parallel_faults.py`` asserts this end to end.
* **One stop path** — :meth:`WorkerSupervisor.stop` cancels every
  pending and in-flight task and tears the workers down.

The parent never simulates and never blocks on a single worker: one
monitor thread multiplexes every worker pipe with
:func:`multiprocessing.connection.wait`, so a hung worker cannot stall
dispatch to the others.  All host-time reads go through
:func:`repro.perf.observe.now` (deadlines only — nothing simulated
ever sees them).

Process-level fault injection (the ``worker-kill`` profile and the
``kill_cells`` / ``hang_cells`` fields of a
:class:`~repro.harness.faults.FaultProfile`) happens *inside the
worker*, before the job runs, so the injected carnage exercises
precisely the supervision machinery above while leaving the
simulation untouched.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from multiprocessing import get_context
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.errors import HarnessError, ReproError
from repro.harness.faults import FaultInjector, FaultProfile
from repro.perf.observe import now

#: Exit code used by injected worker kills (distinguishable from real
#: crashes in logs; the supervisor treats both identically).
INJECTED_KILL_EXIT = 137


@dataclass(frozen=True)
class SupervisorPolicy:
    """Supervision knobs for one :class:`WorkerSupervisor`.

    Attributes:
        workers: Worker process count (>= 1).
        heartbeat_interval_s: Worker beat period.
        heartbeat_timeout_s: Parent-side deadline: a worker silent for
            this long is declared hung and killed.  Must exceed the
            interval with margin.
        job_timeout_s: Wall-clock budget per job *dispatch*; ``None``
            disables process-level timeouts.
        max_dispatches: Total dispatch attempts per job before the
            supervisor gives it up as lost.
        restart_backoff_base_s: First-respawn delay after a worker
            death; doubles per consecutive failure of the same slot.
        restart_backoff_cap_s: Upper bound on the backoff delay.
    """

    workers: int = 2
    heartbeat_interval_s: float = 0.05
    heartbeat_timeout_s: float = 2.0
    job_timeout_s: Optional[float] = None
    max_dispatches: int = 5
    restart_backoff_base_s: float = 0.05
    restart_backoff_cap_s: float = 2.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise HarnessError(f"workers must be >= 1, got {self.workers}")
        if self.heartbeat_interval_s <= 0:
            raise HarnessError("heartbeat_interval_s must be > 0")
        if self.heartbeat_timeout_s <= 2 * self.heartbeat_interval_s:
            raise HarnessError(
                "heartbeat_timeout_s must exceed twice the interval "
                f"({self.heartbeat_timeout_s} vs "
                f"{self.heartbeat_interval_s})"
            )
        if self.job_timeout_s is not None and self.job_timeout_s <= 0:
            raise HarnessError("job_timeout_s must be > 0 when set")
        if self.max_dispatches < 1:
            raise HarnessError("max_dispatches must be >= 1")
        if self.restart_backoff_base_s < 0 or self.restart_backoff_cap_s < 0:
            raise HarnessError("restart backoff must be >= 0")


@dataclass(frozen=True)
class TaskOutcome:
    """Terminal state of one submitted task.

    ``status`` is one of:

    * ``"done"`` — ``run_fn`` returned ``value``;
    * ``"error"`` — ``run_fn`` raised a :class:`ReproError`
      (deterministic task failure; not redispatched);
    * ``"lost"`` — the dispatch budget was exhausted by worker deaths,
      hangs, or timeouts;
    * ``"cancelled"`` — the task was still pending or in flight when
      the supervisor was stopped.
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
    callback: Callable[[TaskOutcome], None]
    dispatches: int = 0


@dataclass
class _Slot:
    """One worker slot: a process that is respawned in place."""

    index: int
    proc: Any = None
    conn: Any = None
    state: str = "down"  # down | starting | idle | busy | dead
    task: Optional[_Task] = None
    last_hb: float = 0.0
    task_deadline: Optional[float] = None
    restart_at: Optional[float] = None
    fail_streak: int = 0


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
    heartbeat_interval_s: float,
) -> None:
    """Worker process entry: beat, receive tasks, run, reply.

    Process-level faults are drawn here, deterministically keyed by
    ``(profile, seed, task_id, dispatch)``, *before* the task runs —
    so an injected kill or hang never leaves a partially-perturbed
    simulation behind.
    """
    # The parent coordinates interrupts; a Ctrl-C must not take the
    # workers down mid-write of a reply.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    stop_beats = threading.Event()
    send_lock = threading.Lock()

    def _beat() -> None:
        while not stop_beats.wait(heartbeat_interval_s):
            try:
                with send_lock:
                    conn.send(("hb",))
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
    with send_lock:
        conn.send(("ready",))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == "stop":
            break
        _, task_id, payload, dispatch = message
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
            with send_lock:
                conn.send((
                    "task-error", task_id,
                    f"{type(exc).__name__}: {exc}",
                ))
        else:
            with send_lock:
                conn.send(("done", task_id, value))
    conn.close()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------

class WorkerSupervisor:
    """Supervises a persistent pool of worker processes.

    ``init_fn(*init_args)`` runs once in each (re)spawned worker;
    ``run_fn(payload)`` executes one task and its return value is
    shipped back to the parent.  Both must be module-level picklable
    callables.  Results are delivered by invoking each task's callback
    with a :class:`TaskOutcome` **on the monitor thread** — callbacks
    must be quick and thread-safe (append to a queue, set an event...).

    Thread-safe: :meth:`submit` and :meth:`stop` may be called from
    any thread.
    """

    def __init__(
        self,
        policy: SupervisorPolicy,
        run_fn: Callable[[Any], Any],
        init_fn: Optional[Callable[..., None]] = None,
        init_args: Tuple[Any, ...] = (),
        fault_profile: Optional[FaultProfile] = None,
        fault_seed: int = 0,
    ) -> None:
        self.policy = policy
        self._run_fn = run_fn
        self._init_fn = init_fn
        self._init_args = init_args
        self._fault_profile = fault_profile
        self._fault_seed = fault_seed
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        self._ctx = get_context("fork") if "fork" in methods else get_context()
        self._slots = [_Slot(index=i) for i in range(policy.workers)]
        self._pending: Deque[_Task] = deque()
        self._inbox: Deque[Tuple[str, Any]] = deque()
        self._inbox_lock = threading.Lock()
        self._wake_r, self._wake_w = os.pipe()
        self._monitor: Optional[threading.Thread] = None
        self._stopped = threading.Event()
        self._phase = "new"  # new | running | stopping | stopped

    # -- public API ----------------------------------------------------

    def start(self) -> "WorkerSupervisor":
        """Spawn the workers and the monitor thread."""
        if self._phase != "new":
            raise HarnessError("supervisor already started")
        self._phase = "running"
        for slot in self._slots:
            self._spawn(slot)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-supervisor", daemon=True
        )
        self._monitor.start()
        return self

    def submit(
        self,
        task_id: str,
        payload: Any,
        callback: Callable[[TaskOutcome], None],
    ) -> None:
        """Queue one task; its callback fires exactly once."""
        if self._phase not in ("new", "running"):
            raise HarnessError(
                f"supervisor is {self._phase}; not accepting tasks"
            )
        task = _Task(task_id=task_id, payload=payload, callback=callback)
        self._post(("submit", task))

    def stop(self) -> None:
        """Cancel every pending and in-flight task and stop the workers.

        Each cancelled task's callback fires with status
        ``"cancelled"``; :meth:`join` waits for the teardown.
        """
        self._post(("stop", None))

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for the monitor thread to finish tearing down."""
        self._stopped.wait(timeout)

    # -- monitor internals ---------------------------------------------

    def _post(self, command: Tuple[str, Any]) -> None:
        with self._inbox_lock:
            self._inbox.append(command)
        try:
            os.write(self._wake_w, b"x")
        except OSError:
            pass

    def _spawn(self, slot: _Slot) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                child_conn, self._init_fn, self._init_args, self._run_fn,
                self._fault_profile, self._fault_seed,
                self.policy.heartbeat_interval_s,
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        slot.proc = proc
        slot.conn = parent_conn
        slot.state = "starting"
        slot.task = None
        slot.last_hb = now()
        slot.task_deadline = None
        slot.restart_at = None

    def _kill_slot(self, slot: _Slot) -> None:
        if slot.proc is not None:
            try:
                slot.proc.kill()
            except (OSError, AttributeError, ValueError):
                pass
            slot.proc.join(1.0)
        if slot.conn is not None:
            try:
                slot.conn.close()
            except OSError:
                pass
        slot.proc = None
        slot.conn = None

    def _deliver(self, task: _Task, outcome: TaskOutcome) -> None:
        try:
            task.callback(outcome)
        except Exception:
            # A broken callback must not take the monitor down; the
            # supervisor's contract is "callback fires once", not
            # "callback succeeds".
            pass

    def _fail_task(self, task: _Task, status: str, error: str) -> None:
        self._deliver(task, TaskOutcome(
            task_id=task.task_id, status=status, error=error,
            dispatches=task.dispatches,
        ))

    def _requeue_or_fail(self, task: _Task, why: str) -> None:
        if task.dispatches >= self.policy.max_dispatches:
            self._fail_task(
                task, "lost",
                f"dispatch budget exhausted after {task.dispatches} "
                f"attempts (last: {why})",
            )
            return
        self._pending.appendleft(task)

    def _on_slot_death(self, slot: _Slot, why: str) -> None:
        task = slot.task
        slot.task = None
        slot.task_deadline = None
        self._kill_slot(slot)
        slot.fail_streak += 1
        if task is not None:
            self._requeue_or_fail(task, why)
        backoff = min(
            self.policy.restart_backoff_cap_s,
            self.policy.restart_backoff_base_s * (2 ** (slot.fail_streak - 1)),
        )
        slot.state = "down"
        slot.restart_at = now() + backoff

    def _pump_slot(self, slot: _Slot) -> None:
        """Drain every message the slot's pipe currently holds."""
        while True:
            try:
                if not slot.conn.poll():
                    return
                message = slot.conn.recv()
            except (EOFError, OSError):
                self._on_slot_death(slot, "worker process died")
                return
            kind = message[0]
            slot.last_hb = now()
            if kind == "hb":
                continue
            if kind == "ready":
                slot.state = "idle"
                continue
            task = slot.task
            slot.task = None
            slot.task_deadline = None
            slot.state = "idle"
            slot.fail_streak = 0
            if task is None:
                continue  # late reply from a task already written off
            if kind == "done":
                _, task_id, value = message
                self._deliver(task, TaskOutcome(
                    task_id=task_id, status="done", value=value,
                    dispatches=task.dispatches,
                ))
            elif kind == "task-error":
                _, _task_id, error = message
                self._fail_task(task, "error", error)

    def _dispatch(self) -> None:
        for slot in self._slots:
            if not self._pending:
                return
            if slot.state != "idle":
                continue
            task = self._pending.popleft()
            task.dispatches += 1
            try:
                slot.conn.send((
                    "task", task.task_id, task.payload, task.dispatches - 1,
                ))
            except (OSError, BrokenPipeError):
                self._on_slot_death(slot, "pipe broke on dispatch")
                continue
            slot.state = "busy"
            slot.task = task
            if self.policy.job_timeout_s is not None:
                slot.task_deadline = now() + self.policy.job_timeout_s

    def _check_deadlines(self) -> None:
        current = now()
        for slot in self._slots:
            if slot.state not in ("starting", "idle", "busy"):
                continue
            if current - slot.last_hb > self.policy.heartbeat_timeout_s:
                self._on_slot_death(slot, "heartbeat deadline lapsed")
                continue
            if (slot.task_deadline is not None
                    and current > slot.task_deadline):
                self._on_slot_death(slot, "job wall-clock timeout")

    def _restart_due(self) -> None:
        current = now()
        for slot in self._slots:
            if slot.state == "down" and slot.restart_at is not None:
                if current >= slot.restart_at:
                    self._spawn(slot)

    def _cancel_all(self) -> None:
        while self._pending:
            task = self._pending.popleft()
            self._fail_task(task, "cancelled", "supervisor stopped")
        for slot in self._slots:
            if slot.task is not None:
                task = slot.task
                slot.task = None
                slot.task_deadline = None
                self._fail_task(task, "cancelled", "supervisor stopped")

    def _process_inbox(self) -> None:
        while True:
            with self._inbox_lock:
                if not self._inbox:
                    return
                kind, arg = self._inbox.popleft()
            if kind == "submit":
                if self._phase == "running":
                    self._pending.append(arg)
                else:
                    self._fail_task(
                        arg, "cancelled", f"supervisor {self._phase}"
                    )
            elif kind == "stop":
                self._phase = "stopping"

    def _next_timeout(self) -> float:
        deadlines: List[float] = []
        for slot in self._slots:
            if slot.state in ("starting", "idle", "busy"):
                deadlines.append(
                    slot.last_hb + self.policy.heartbeat_timeout_s
                )
            if slot.task_deadline is not None:
                deadlines.append(slot.task_deadline)
            if slot.state == "down" and slot.restart_at is not None:
                deadlines.append(slot.restart_at)
        if not deadlines:
            return 0.5
        return max(0.0, min(0.5, min(deadlines) - now()))

    def _monitor_loop(self) -> None:
        try:
            while True:
                self._process_inbox()
                if self._phase == "stopping":
                    break
                self._restart_due()
                self._dispatch()
                readers = [
                    slot.conn for slot in self._slots
                    if slot.conn is not None
                ]
                readers.append(self._wake_r)
                ready = mp_connection.wait(
                    readers, timeout=self._next_timeout()
                )
                if self._wake_r in ready:
                    try:
                        os.read(self._wake_r, 4096)
                    except OSError:
                        pass
                for slot in list(self._slots):
                    if slot.conn is not None and slot.conn in ready:
                        self._pump_slot(slot)
                self._check_deadlines()
        finally:
            self._teardown()

    def _teardown(self) -> None:
        self._cancel_all()
        for slot in self._slots:
            if slot.conn is not None and slot.state == "idle":
                try:
                    slot.conn.send(("stop",))
                except (OSError, BrokenPipeError):
                    pass
            self._kill_slot(slot)
            slot.state = "dead"
        self._phase = "stopped"
        self._stopped.set()
