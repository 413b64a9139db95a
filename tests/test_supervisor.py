"""Supervision contract of the persistent worker pool.

Every failure mode ``run_cells`` leans on is exercised directly here:
worker death (injected kill), hangs caught by the heartbeat deadline,
per-job wall-clock timeouts, and the single stop path — plus the core
robustness invariant that a redispatched task returns the
byte-identical value a clean run yields.
"""

from __future__ import annotations

import queue
import time

import pytest

from repro.errors import HarnessError
from repro.harness.faults import FaultProfile
from repro.harness.supervisor import SupervisorPolicy, WorkerSupervisor

FAST = dict(heartbeat_interval_s=0.02, heartbeat_timeout_s=0.25,
            restart_backoff_base_s=0.01, restart_backoff_cap_s=0.05)


def _square(payload):
    return payload * payload


def _sleep_then_square(payload):
    time.sleep(payload[0])
    return payload[1] * payload[1]


def _raise_harness(payload):
    raise HarnessError(f"deterministic failure for {payload}")


def _run_tasks(supervisor, tasks, timeout=30.0):
    """Submit tasks, collect outcomes keyed by task id."""
    results = queue.Queue()
    for task_id, payload in tasks:
        supervisor.submit(task_id, payload, results.put)
    outcomes = {}
    deadline = time.monotonic() + timeout
    while len(outcomes) < len(tasks):
        remaining = deadline - time.monotonic()
        assert remaining > 0, f"timed out; got {sorted(outcomes)}"
        outcome = results.get(timeout=remaining)
        outcomes[outcome.task_id] = outcome
    return outcomes


class TestCleanPool:
    def test_runs_tasks_in_one_dispatch(self):
        supervisor = WorkerSupervisor(
            SupervisorPolicy(workers=2, **FAST), run_fn=_square
        ).start()
        try:
            outcomes = _run_tasks(
                supervisor, [(f"t{i}", i) for i in range(8)]
            )
        finally:
            supervisor.stop()
            supervisor.join(10.0)
        assert all(o.status == "done" for o in outcomes.values())
        assert {o.value for o in outcomes.values()} == {
            i * i for i in range(8)
        }
        assert all(o.dispatches == 1 for o in outcomes.values())

    def test_submit_after_stop_raises(self):
        supervisor = WorkerSupervisor(
            SupervisorPolicy(workers=1, **FAST), run_fn=_square
        ).start()
        supervisor.stop()
        supervisor.join(10.0)
        with pytest.raises(HarnessError):
            supervisor.submit("late", 1, lambda outcome: None)

    def test_policy_validation(self):
        with pytest.raises(HarnessError):
            SupervisorPolicy(workers=0)
        with pytest.raises(HarnessError):
            SupervisorPolicy(heartbeat_interval_s=0.5,
                             heartbeat_timeout_s=0.6)
        with pytest.raises(HarnessError):
            SupervisorPolicy(job_timeout_s=0.0)
        with pytest.raises(HarnessError):
            SupervisorPolicy(max_dispatches=0)


class TestWorkerDeath:
    def test_injected_kill_recovers_byte_identical(self):
        """A killed first dispatch redispatches to the same value."""
        profile = FaultProfile(name="test-kill", kill_cells=("t3",))
        supervisor = WorkerSupervisor(
            SupervisorPolicy(workers=2, **FAST),
            run_fn=_square, fault_profile=profile,
        ).start()
        try:
            outcomes = _run_tasks(
                supervisor, [(f"t{i}", i) for i in range(6)]
            )
        finally:
            supervisor.stop()
            supervisor.join(10.0)
        assert all(o.status == "done" for o in outcomes.values())
        # The faulted task recovered to the identical value and shows
        # the extra dispatch; clean tasks completed first try.
        assert outcomes["t3"].value == 9
        assert outcomes["t3"].dispatches == 2
        assert all(outcomes[f"t{i}"].dispatches == 1
                   for i in range(6) if i != 3)

    def test_deterministic_task_error_not_redispatched(self):
        supervisor = WorkerSupervisor(
            SupervisorPolicy(workers=1, **FAST), run_fn=_raise_harness
        ).start()
        try:
            outcomes = _run_tasks(supervisor, [("bad", 7)])
        finally:
            supervisor.stop()
            supervisor.join(10.0)
        assert outcomes["bad"].status == "error"
        assert "deterministic failure" in outcomes["bad"].error
        # A ReproError is the task's fault, not the worker's: no
        # redispatch.
        assert outcomes["bad"].dispatches == 1


class TestHangDetection:
    def test_hang_caught_by_heartbeat_deadline(self):
        profile = FaultProfile(name="test-hang", hang_cells=("t1",))
        supervisor = WorkerSupervisor(
            SupervisorPolicy(workers=2, **FAST),
            run_fn=_square, fault_profile=profile,
        ).start()
        try:
            outcomes = _run_tasks(
                supervisor, [(f"t{i}", i) for i in range(4)]
            )
        finally:
            supervisor.stop()
            supervisor.join(10.0)
        assert all(o.status == "done" for o in outcomes.values())
        assert outcomes["t1"].value == 1
        assert outcomes["t1"].dispatches == 2

    def test_job_timeout_exhausts_dispatches(self):
        """A genuinely slow task is killed at the deadline each time."""
        supervisor = WorkerSupervisor(
            SupervisorPolicy(workers=1, job_timeout_s=0.2,
                             max_dispatches=2, **FAST),
            run_fn=_sleep_then_square,
        ).start()
        try:
            outcomes = _run_tasks(
                supervisor, [("slow", (5.0, 3))], timeout=30.0
            )
        finally:
            supervisor.stop()
            supervisor.join(10.0)
        assert outcomes["slow"].status == "lost"
        assert outcomes["slow"].dispatches == 2
        assert "dispatch budget exhausted" in outcomes["slow"].error
        assert "job wall-clock timeout" in outcomes["slow"].error

    def test_job_timeout_spares_fast_tasks(self):
        supervisor = WorkerSupervisor(
            SupervisorPolicy(workers=2, job_timeout_s=10.0, **FAST),
            run_fn=_sleep_then_square,
        ).start()
        try:
            outcomes = _run_tasks(
                supervisor, [(f"t{i}", (0.01, i)) for i in range(4)]
            )
        finally:
            supervisor.stop()
            supervisor.join(10.0)
        assert all(o.status == "done" for o in outcomes.values())
        assert all(o.dispatches == 1 for o in outcomes.values())


class TestStop:
    def test_stop_cancels_outstanding(self):
        supervisor = WorkerSupervisor(
            SupervisorPolicy(workers=1, **FAST),
            run_fn=_sleep_then_square,
        ).start()
        results = queue.Queue()
        # One slow task in flight plus a backlog that never dispatches.
        for index in range(4):
            supervisor.submit(
                f"t{index}", (1.0 if index == 0 else 0.01, index),
                results.put,
            )
        time.sleep(0.2)  # let t0 dispatch
        supervisor.stop()
        supervisor.join(10.0)
        outcomes = {}
        while len(outcomes) < 4:
            outcome = results.get(timeout=5.0)
            outcomes[outcome.task_id] = outcome
        assert all(o.status == "cancelled" for o in outcomes.values())
