"""Tests for the resilient executor (retry, watchdog, adaptive paths)."""

import pytest

from repro.core.channels import ChannelType
from repro.core.variants import TrainTestAttack
from repro.errors import AttackError, SimulationError, StatsError
from repro.harness import runner
from repro.harness.experiment import run_cell
from repro.harness.faults import FaultInjector, FaultProfile
from repro.harness.runner import (
    AdaptivePolicy,
    CellClassification,
    ExecutionPolicy,
    ResilientExecutor,
    RetryPolicy,
    reseed,
)
from repro.perf.counters import COUNTERS
from repro.pipeline.config import CoreConfig
from repro.stats.ttest import ALPHA


class FakeResult:
    def __init__(self, pvalue):
        self.pvalue = pvalue


class TestReseed:
    def test_attempt_zero_is_base_seed(self):
        assert reseed(42, 0) == 42

    def test_attempts_derive_distinct_seeds(self):
        seeds = [reseed(42, attempt) for attempt in range(5)]
        assert len(set(seeds)) == 5

    def test_deterministic(self):
        assert reseed(7, 3) == reseed(7, 3)


class TestPolicies:
    def test_retry_policy_validation(self):
        from repro.errors import HarnessError
        with pytest.raises(HarnessError):
            RetryPolicy(max_retries=-1)

    def test_adaptive_band(self):
        adaptive = AdaptivePolicy()
        assert adaptive.inconclusive(0.05)
        assert adaptive.inconclusive(0.03)
        assert not adaptive.inconclusive(0.001)
        assert not adaptive.inconclusive(0.5)

    def test_adaptive_validation(self):
        # The band brackets ALPHA, and every escalation at least
        # doubles the sample.
        assert 0.0 <= runner.BAND_LOW < ALPHA < runner.BAND_HIGH <= 1.0
        assert runner.ESCALATION_FACTOR >= 2
        assert runner.MAX_ESCALATIONS >= 0


class TestRetryPath:
    def test_clean_first_attempt(self):
        executor = ResilientExecutor()
        cell = executor.supervise(
            "c", lambda seed, n: FakeResult(0.5), seed=3, n_runs=10
        )
        assert cell.classification is CellClassification.CLEAN
        assert cell.result.pvalue == 0.5
        assert [a.seed for a in cell.attempts] == [3]

    def test_retry_after_errors_reseeds(self):
        calls = []

        def flaky(seed, n):
            calls.append(seed)
            if len(calls) < 3:
                raise StatsError("empty sample")
            return FakeResult(0.9)

        executor = ResilientExecutor(
            ExecutionPolicy(retry=RetryPolicy(max_retries=3))
        )
        cell = executor.supervise("c", flaky, seed=5, n_runs=10)
        assert cell.classification is CellClassification.RETRIED
        assert len(cell.attempts) == 3
        assert cell.attempts[0].error_type == "StatsError"
        assert cell.attempts[2].error is None
        assert len(set(calls)) == 3  # every retry used a fresh seed

    def test_gives_up_after_max_retries(self):
        def always_fails(seed, n):
            raise StatsError("nope")

        executor = ResilientExecutor(
            ExecutionPolicy(retry=RetryPolicy(max_retries=2))
        )
        cell = executor.supervise("c", always_fails, seed=0, n_runs=10)
        assert cell.classification is CellClassification.FAILED
        assert cell.result is None
        assert len(cell.attempts) == 3


class TestInvalidConfiguration:
    def test_invalid_cell_raises_instead_of_retrying(self):
        # n_runs=1 fails the same way under every seed: the executor
        # raises before its first attempt rather than spending retries.
        executor = ResilientExecutor()
        with pytest.raises(AttackError, match="n_runs must be >= 2"):
            executor.run_cell_supervised(
                "bad", TrainTestAttack(), ChannelType.TIMING_WINDOW, "lvp",
                n_runs=1, seed=0,
            )


class TestAdaptiveRemeasurement:
    """Escalation extends the sample in place, fixed-N cells included."""

    N = 4

    def _cell(self, predictor="none", seed=9, n_runs=N):
        executor = ResilientExecutor(ExecutionPolicy(backend="scalar"))
        return executor.run_cell_supervised(
            "c", TrainTestAttack(), ChannelType.TIMING_WINDOW, predictor,
            n_runs=n_runs, seed=seed,
        )

    @staticmethod
    def _band_of_everything(monkeypatch, max_escalations):
        # A band of [0, 1) declares every p-value inconclusive.
        monkeypatch.setattr(runner, "BAND_LOW", 0.0)
        monkeypatch.setattr(runner, "BAND_HIGH", 1.0)
        monkeypatch.setattr(runner, "MAX_ESCALATIONS", max_escalations)

    def test_escalates_out_of_inconclusive_band(self, monkeypatch):
        # Every p-value is inconclusive, so the fixed-N cell escalates
        # once, from N to 2N trials.
        self._band_of_everything(monkeypatch, max_escalations=1)
        before = COUNTERS.snapshot()
        cell = self._cell()
        # The first N trials are kept: 2 x 2N trials in all, where a
        # re-run from trial 0 would simulate 2 x 3N.
        assert COUNTERS.trials - before["trials"] == 2 * 2 * self.N
        assert cell.escalations == 1
        cold = run_cell(
            TrainTestAttack(), ChannelType.TIMING_WINDOW, "none",
            n_runs=2 * self.N, seed=9, backend="scalar",
        )
        assert (cell.result.comparison.mapped.samples
                == cold.comparison.mapped.samples)
        assert (cell.result.comparison.unmapped.samples
                == cold.comparison.unmapped.samples)
        assert cell.result.pvalue == cold.pvalue
        # One attempt produced the result, and it records the 2N trials.
        assert [a.n_runs for a in cell.attempts] == [2 * self.N]
        assert cell.execution_record()["final_n_runs"] == 2 * self.N
        assert "sequential" not in cell.to_payload()

    def test_still_inconclusive_is_degraded(self, monkeypatch):
        self._band_of_everything(monkeypatch, max_escalations=2)
        cell = self._cell()
        assert cell.classification is CellClassification.DEGRADED
        assert cell.escalations == 2
        assert cell.result is not None
        assert "inconclusive" in cell.note
        assert [a.n_runs for a in cell.attempts] == [4 * self.N]

    def test_conclusive_pvalue_never_escalates(self):
        # Train + Test with an LVP at seed 1 separates its samples
        # (p < ALPHA / 2) after 8 trials per hypothesis.
        cell = self._cell(predictor="lvp", seed=1, n_runs=8)
        assert cell.result.pvalue < runner.BAND_LOW
        assert cell.classification is CellClassification.CLEAN
        assert cell.escalations == 0
        assert [a.n_runs for a in cell.attempts] == [8]


class TestWatchdog:
    def test_max_cycles_aborts_runaway_simulation(self):
        with pytest.raises(SimulationError):
            run_cell(
                TrainTestAttack(), ChannelType.TIMING_WINDOW, "lvp",
                n_runs=2, seed=0, core_config=CoreConfig(max_cycles=10),
            )

    def test_supervised_watchdog_classifies_failed(self):
        executor = ResilientExecutor(
            ExecutionPolicy(retry=RetryPolicy(max_retries=0))
        )
        cell = executor.run_cell_supervised(
            "watchdog", TrainTestAttack(), ChannelType.TIMING_WINDOW,
            "lvp", n_runs=2, seed=0, core_config=CoreConfig(max_cycles=10),
        )
        assert cell.classification is CellClassification.FAILED
        assert cell.attempts[0].error_type == "SimulationError"


class TestInjectedFaultsEndToEnd:
    def test_retry_after_injected_crash(self):
        profile = FaultProfile(name="t", crash_cells=("doomed",))
        executor = ResilientExecutor(
            ExecutionPolicy(retry=RetryPolicy(max_retries=1)),
            injector=FaultInjector(profile, seed=0),
        )
        cell = executor.run_cell_supervised(
            "doomed", TrainTestAttack(), ChannelType.TIMING_WINDOW,
            "lvp", n_runs=3, seed=1,
        )
        assert cell.classification is CellClassification.RETRIED
        assert cell.result is not None
        assert cell.attempts[0].error_type == "InjectedCrashError"
        assert cell.attempts[1].error is None
        # The recovery attempt ran under a fresh seed.
        assert cell.attempts[1].seed != cell.attempts[0].seed


class TestExecutionRecord:
    def test_record_carries_classification_and_attempts(self):
        executor = ResilientExecutor()
        cell = executor.supervise(
            "c", lambda seed, n: FakeResult(0.4), seed=1, n_runs=6
        )
        record = cell.execution_record()
        assert record["classification"] == "clean"
        assert record["final_seed"] == 1
        assert record["final_n_runs"] == 6
        assert len(record["attempts"]) == 1
        # Retries never wait, but records keep their historical shape.
        assert record["attempts"][0]["backoff_s"] == 0.0
