"""Unit tests for the MemorySystem facade."""

import pytest

from repro.errors import MemorySystemError
from repro.memory.hierarchy import MemoryConfig, MemorySystem

from tests.conftest import deterministic_memory_config


@pytest.fixture
def memory():
    return MemorySystem(deterministic_memory_config())


class TestLoadTiming:
    def test_cold_load_pays_dram(self, memory):
        result = memory.load(1, 0x1000)
        assert not result.l1_hit
        assert not result.l2_hit
        # l1 + l2 + dram + tlb walk
        config = memory.config
        expected = (
            config.l1_hit_latency + config.l2_hit_latency
            + 200 + config.tlb_walk_latency
        )
        assert result.latency == expected

    def test_second_load_hits_l1(self, memory):
        memory.load(1, 0x1000)
        result = memory.load(1, 0x1000)
        assert result.l1_hit
        assert result.latency == memory.config.l1_hit_latency

    def test_l2_hit_after_l1_eviction(self, memory):
        memory.load(1, 0x1000)
        # Evict from L1 by filling its set (L1: 32KB/8way/64B = 64 sets,
        # set stride 0x1000); L2 has 512 sets so these do not collide there.
        for way in range(1, 9):
            memory.load(1, 0x1000 + way * 64 * 64)
        result = memory.load(1, 0x1000)
        assert not result.l1_hit
        assert result.l2_hit

    def test_load_returns_architectural_value(self, memory):
        memory.write_value(1, 0x1000, 777)
        assert memory.load(1, 0x1000).value == 777

    def test_tlb_walk_only_first_touch(self, memory):
        first = memory.load(1, 0x2000)
        second = memory.load(1, 0x2040)  # same page, different line
        assert first.tlb_latency == memory.config.tlb_walk_latency
        assert second.tlb_latency == 0


class TestFillControl:
    def test_fill_false_leaves_caches_untouched(self, memory):
        result = memory.load(1, 0x3000, fill=False)
        assert not memory.is_cached(1, 0x3000)
        assert not memory.tlb.contains(1, 0x3000)
        assert result.value == memory.read_value(1, 0x3000)

    def test_apply_fill_later(self, memory):
        result = memory.load(1, 0x3000, fill=False)
        memory.apply_fill(result.paddr)
        assert memory.is_cached(1, 0x3000)

    def test_apply_deferred_fill_warms_tlb(self, memory):
        result = memory.load(1, 0x3000, fill=False)
        memory.apply_deferred_fill(result.paddr, 1, 0x3000)
        assert memory.is_cached(1, 0x3000)
        assert memory.tlb.contains(1, 0x3000)

    def test_fill_false_latency_matches_cache_state(self, memory):
        memory.load(1, 0x3000)  # warm
        warm = memory.load(1, 0x3000, fill=False)
        assert warm.l1_hit


class TestStoreAndFlush:
    def test_store_allocates_line(self, memory):
        memory.store(1, 0x4000, 5)
        assert memory.is_cached(1, 0x4000)
        assert memory.read_value(1, 0x4000) == 5

    def test_flush_removes_all_levels(self, memory):
        memory.load(1, 0x5000)
        memory.flush(1, 0x5000)
        assert not memory.is_cached(1, 0x5000)
        result = memory.load(1, 0x5000)
        assert not result.l1_hit
        assert not result.l2_hit

    def test_flush_latency(self, memory):
        assert memory.flush(1, 0x5000) == memory.config.flush_latency


class TestCrossProcess:
    def test_private_lines_do_not_alias(self, memory):
        memory.load(1, 0x6000)
        result = memory.load(2, 0x6000)
        assert not result.l1_hit

    def test_shared_region_aliases(self, memory):
        memory.add_shared_region(0x700000, 0x10000)
        memory.load(1, 0x700040)
        result = memory.load(2, 0x700040)
        assert result.l1_hit

    def test_shared_region_shares_values(self, memory):
        memory.add_shared_region(0x700000, 0x10000)
        memory.write_value(1, 0x700080, 99)
        assert memory.read_value(2, 0x700080) == 99

    def test_private_values_are_isolated(self, memory):
        memory.write_value(1, 0x8000, 11)
        memory.write_value(2, 0x8000, 22)
        assert memory.read_value(1, 0x8000) == 11
        assert memory.read_value(2, 0x8000) == 22


class TestStats:
    def test_reset_stats_keeps_contents(self, memory):
        memory.load(1, 0x9000)
        memory.reset_stats()
        assert memory.l1.stats.accesses == 0
        assert memory.is_cached(1, 0x9000)

    def test_config_validation(self):
        with pytest.raises(MemorySystemError):
            MemoryConfig(l1_hit_latency=-1)
        with pytest.raises(MemorySystemError):
            MemoryConfig(l2_jitter=-2)
