"""Tests for the exception hierarchy."""

import pytest

from repro import errors


class TestHierarchy:
    @pytest.mark.parametrize("exc", [
        errors.IsaError, errors.AssemblyError, errors.MemorySystemError,
        errors.PredictorError, errors.PipelineError, errors.SimulationError,
        errors.AttackError, errors.ModelError, errors.StatsError,
        errors.CryptoError, errors.HarnessError,
        errors.FaultInjectionError, errors.InjectedCrashError,
    ])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)

    def test_assembly_error_is_isa_error(self):
        assert issubclass(errors.AssemblyError, errors.IsaError)

    def test_injected_crash_is_fault_injection_error(self):
        assert issubclass(
            errors.InjectedCrashError, errors.FaultInjectionError
        )

    def test_single_handler_catches_everything(self):
        for exc in (errors.IsaError("x"), errors.CryptoError("y"),
                    errors.FaultInjectionError("z")):
            with pytest.raises(errors.ReproError):
                raise exc

    def test_memory_error_does_not_shadow_builtin(self):
        assert not issubclass(errors.MemorySystemError, MemoryError)
