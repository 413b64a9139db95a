"""Supervision contract of the worker pool.

Every failure mode ``run_cells`` leans on is exercised directly on
:func:`~repro.harness.supervisor.run_pool`: worker death (injected
kill), hangs caught by the heartbeat deadline, per-job wall-clock
timeouts, a worker that fails to start, and closing the pool — plus
the core robustness invariant that a redispatched task returns the
byte-identical value a clean run yields.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from contextlib import closing, contextmanager

import pytest

from repro.errors import HarnessError
from repro.harness.faults import FaultProfile
from repro.harness.supervisor import MAX_DISPATCHES, run_pool


def _square(payload):
    return payload * payload


def _sleep_then_square(payload):
    time.sleep(payload[0])
    return payload[1] * payload[1]


def _raise_harness(payload):
    raise HarnessError(f"deterministic failure for {payload}")


def _fail_to_start():
    raise RuntimeError("worker initializer failed")


def _freeze():
    # Stops the whole process, heartbeat thread included.
    os.kill(os.getpid(), signal.SIGSTOP)


@contextmanager
def _deadline(seconds):
    """Fail, rather than hang, when the body outlives ``seconds``."""

    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _outcomes(tasks, run_fn, **kwargs):
    """Run ``tasks`` to the end; their outcomes by task id."""
    with closing(run_pool(tasks, run_fn, **kwargs)) as outcomes:
        settled = {outcome.task_id: outcome for outcome in outcomes}
    assert multiprocessing.active_children() == []
    return settled


class TestCleanPool:
    def test_runs_tasks_in_one_dispatch(self):
        outcomes = _outcomes(
            {f"t{i}": i for i in range(8)}, _square, workers=2
        )
        assert all(o.status == "done" for o in outcomes.values())
        assert {o.value for o in outcomes.values()} == {
            i * i for i in range(8)
        }
        assert all(o.dispatches == 1 for o in outcomes.values())

    def test_argument_validation(self):
        with pytest.raises(HarnessError):
            next(run_pool({"t": 1}, _square, workers=0))
        with pytest.raises(HarnessError):
            next(run_pool({"t": 1}, _square, workers=1, job_timeout_s=0.0))
        assert multiprocessing.active_children() == []


class TestWorkerDeath:
    def test_injected_kill_recovers_byte_identical(self):
        """A killed first dispatch redispatches to the same value."""
        profile = FaultProfile(name="test-kill", kill_cells=("t3",))
        outcomes = _outcomes(
            {f"t{i}": i for i in range(6)}, _square, workers=2,
            fault_profile=profile,
        )
        assert all(o.status == "done" for o in outcomes.values())
        # The faulted task recovered to the identical value and shows
        # the extra dispatch; clean tasks completed first try.
        assert outcomes["t3"].value == 9
        assert outcomes["t3"].dispatches == 2
        assert all(outcomes[f"t{i}"].dispatches == 1
                   for i in range(6) if i != 3)

    def test_deterministic_task_error_not_redispatched(self):
        outcomes = _outcomes({"bad": 7}, _raise_harness, workers=1)
        assert outcomes["bad"].status == "error"
        assert "deterministic failure" in outcomes["bad"].error
        # A ReproError is the task's fault, not the worker's: no
        # redispatch.
        assert outcomes["bad"].dispatches == 1

    def test_worker_that_fails_to_start_ends_the_pool(self):
        # It would fail the same way again, so the pool stops instead
        # of replacing it forever.
        with _deadline(10), pytest.raises(
            HarnessError, match=r"died while it held no task \(exit code 1\)"
        ):
            _outcomes({"t0": 0, "t1": 1}, _square, workers=2,
                      init_fn=_fail_to_start)
        assert multiprocessing.active_children() == []

    def test_worker_silent_without_a_task_ends_the_pool(self):
        with _deadline(10), pytest.raises(
            HarnessError, match=r"went silent while it held no task"
        ):
            _outcomes({"t0": 0}, _square, workers=1, init_fn=_freeze)
        assert multiprocessing.active_children() == []


class TestHangDetection:
    def test_hang_caught_by_heartbeat_deadline(self):
        profile = FaultProfile(name="test-hang", hang_cells=("t1",))
        outcomes = _outcomes(
            {f"t{i}": i for i in range(4)}, _square, workers=2,
            fault_profile=profile,
        )
        assert all(o.status == "done" for o in outcomes.values())
        assert outcomes["t1"].value == 1
        assert outcomes["t1"].dispatches == 2

    def test_job_timeout_exhausts_dispatches(self):
        """A genuinely slow task is killed at the deadline each time."""
        outcomes = _outcomes(
            {"slow": (30.0, 3)}, _sleep_then_square, workers=1,
            job_timeout_s=0.2,
        )
        assert outcomes["slow"].status == "lost"
        assert outcomes["slow"].dispatches == MAX_DISPATCHES
        assert "dispatch budget exhausted" in outcomes["slow"].error
        assert "job timeout" in outcomes["slow"].error

    def test_job_timeout_spares_fast_tasks(self):
        outcomes = _outcomes(
            {f"t{i}": (0.01, i) for i in range(4)}, _sleep_then_square,
            workers=2, job_timeout_s=10.0,
        )
        assert all(o.status == "done" for o in outcomes.values())
        assert all(o.dispatches == 1 for o in outcomes.values())


class TestClose:
    def test_close_kills_workers(self):
        outcomes = run_pool(
            {"fast": (0.0, 2), "slow": (30.0, 3)}, _sleep_then_square,
            workers=4,
        )
        with _deadline(10), closing(outcomes):
            first = next(outcomes)
            assert (first.task_id, first.value) == ("fast", 4)
            # One task is left, so one worker is: the pool never runs
            # more workers than it has unsettled tasks.
            assert len(multiprocessing.active_children()) == 1
        assert multiprocessing.active_children() == []
        assert next(outcomes, None) is None
