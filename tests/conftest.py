"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.memory.hierarchy import MemoryConfig, MemorySystem
from repro.memory.memsys import DramConfig
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import Core
from repro.vp.lvp import LastValuePredictor
from repro.vp.nopred import NoPredictor


def deterministic_memory_config(**overrides) -> MemoryConfig:
    """A memory config with zero timing jitter for exact-cycle tests."""
    defaults = dict(
        dram=DramConfig(
            base_latency=200, jitter=0, tail_probability=0.0, tail_extra=0
        ),
        l2_jitter=0,
    )
    defaults.update(overrides)
    return MemoryConfig(**defaults)


@pytest.fixture
def det_memory() -> MemorySystem:
    """A fresh deterministic memory system."""
    return MemorySystem(deterministic_memory_config())


@pytest.fixture
def det_core(det_memory) -> Core:
    """A core with no value predictor on deterministic memory."""
    return Core(det_memory, NoPredictor(), CoreConfig())


@pytest.fixture
def lvp_core(det_memory) -> Core:
    """A core with a confidence-4 LVP on deterministic memory."""
    return Core(
        det_memory, LastValuePredictor(confidence_threshold=4), CoreConfig()
    )


@pytest.fixture
def journaled_ids(monkeypatch):
    """``journaled_ids(store)``: the ids ``store`` journals from then on.

    Cells reused from the journal are never saved again, so the list
    tells which cells a sweep actually ran.
    """

    def watch(store) -> list:
        saved: list = []
        save = store.save

        def spy(cell_id, payload):
            saved.append(cell_id)
            save(cell_id, payload)

        monkeypatch.setattr(store, "save", spy)
        return saved

    return watch
