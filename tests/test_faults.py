"""Tests for the deterministic fault-injection framework."""

import pytest

from repro.errors import FaultInjectionError, InjectedCrashError
from repro.harness.faults import (
    PROFILES,
    FaultInjector,
    FaultProfile,
    fault_profile,
    no_faults,
)


def _crashes(injector, cell_id, attempts=range(40)):
    """Which attempts of ``cell_id`` the injector crashes."""
    outcomes = []
    for attempt in attempts:
        try:
            injector.maybe_crash(cell_id, attempt)
            outcomes.append(False)
        except InjectedCrashError:
            outcomes.append(True)
    return outcomes


def _process_faults(injector, task_id, dispatches=range(40)):
    return [injector.process_fault(task_id, d) for d in dispatches]


class TestProfiles:
    def test_registry_holds_exactly_the_kept_profiles(self):
        assert sorted(PROFILES) == ["crash", "none", "worker-kill"]

    def test_lookup(self):
        assert fault_profile("crash").crash_rate > 0

    def test_unknown_profile_rejected(self):
        with pytest.raises(FaultInjectionError):
            fault_profile("bogus")

    def test_invalid_rate_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultProfile(name="bad", crash_rate=1.5)

    def test_none_profile_perturbs_nothing(self):
        profile = PROFILES["none"]
        assert not profile.perturbs_process
        assert profile.crash_rate == 0.0


class TestDeterminism:
    """Keyed draws: what keeps ``--workers N`` byte-identical under faults."""

    def test_same_seed_same_draws(self):
        a = FaultInjector(PROFILES["crash"], seed=5)
        b = FaultInjector(PROFILES["crash"], seed=5)
        assert _crashes(a, "cell") == _crashes(b, "cell")
        assert any(_crashes(a, "cell"))
        a = FaultInjector(PROFILES["worker-kill"], seed=5)
        b = FaultInjector(PROFILES["worker-kill"], seed=5)
        assert _process_faults(a, "task") == _process_faults(b, "task")
        assert "kill" in _process_faults(a, "task")

    def test_different_cells_different_draws(self):
        injector = FaultInjector(PROFILES["crash"], seed=5)
        assert _crashes(injector, "cell-a") != _crashes(injector, "cell-b")
        injector = FaultInjector(PROFILES["worker-kill"], seed=5)
        assert (_process_faults(injector, "task-a")
                != _process_faults(injector, "task-b"))

    def test_draws_independent_of_call_order(self):
        crash = FaultInjector(PROFILES["crash"], seed=5)
        kill = FaultInjector(PROFILES["worker-kill"], seed=5)
        first = _crashes(crash, "cell"), _process_faults(kill, "task")
        _crashes(crash, "other")
        _process_faults(kill, "other")
        reversed_crashes = _crashes(crash, "cell", range(39, -1, -1))
        reversed_faults = _process_faults(kill, "task", range(39, -1, -1))
        assert first == (reversed_crashes[::-1], reversed_faults[::-1])


class TestCrashInjection:
    def test_crash_cells_crash_on_first_attempt_only(self):
        profile = FaultProfile(name="t", crash_cells=("doomed",))
        injector = FaultInjector(profile, seed=0)
        with pytest.raises(InjectedCrashError):
            injector.maybe_crash("doomed", 0)
        injector.maybe_crash("doomed", 1)  # retries succeed
        injector.maybe_crash("innocent", 0)

    def test_crash_rate_deterministic(self):
        outcomes = _crashes(FaultInjector(PROFILES["crash"], seed=11),
                            "cell", range(20))
        replay = _crashes(FaultInjector(PROFILES["crash"], seed=11),
                          "cell", range(20))
        assert outcomes == replay
        assert any(outcomes)  # 25 % rate over 20 draws

    def test_no_faults_never_crashes(self):
        injector = no_faults()
        for attempt in range(50):
            injector.maybe_crash("cell", attempt)
