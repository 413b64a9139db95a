"""Unit tests for the set-associative cache."""

import pytest

from repro.errors import MemorySystemError
from repro.memory.cache import SetAssociativeCache
from repro.memory.hierarchy import MemoryConfig, MemorySystem


def small_cache(ways=2, sets=4, line=64, policy="lru"):
    return SetAssociativeCache(
        "test", sets * ways * line, ways, line_size=line, policy=policy
    )


class TestConstruction:
    def test_geometry(self):
        cache = small_cache()
        assert cache.num_sets == 4
        assert cache.ways == 2

    def test_rejects_non_power_of_two_line(self):
        with pytest.raises(MemorySystemError):
            SetAssociativeCache("x", 4096, 2, line_size=48)

    def test_rejects_indivisible_size(self):
        with pytest.raises(MemorySystemError):
            SetAssociativeCache("x", 1000, 2, line_size=64)

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(MemorySystemError):
            SetAssociativeCache("x", 3 * 2 * 64, 2, line_size=64)

    def test_rejects_unknown_policy_before_any_fill(self):
        # Sets are created on first fill; the name is checked up front.
        with pytest.raises(MemorySystemError, match="plru"):
            SetAssociativeCache("x", 4096, 2, policy="plru")
        with pytest.raises(MemorySystemError, match="plru"):
            MemorySystem(MemoryConfig(replacement_policy="plru"))

    def test_untouched_sets_are_never_built(self):
        cache = small_cache()
        assert not cache.lookup(0x1000)
        assert not cache.contains(0x1000)
        assert not cache.invalidate(0x1000)
        assert cache._sets == {}
        assert cache.stats.misses == 1
        cache.fill(0x1000)  # line 0x40: set 0
        assert list(cache._sets) == [0]


class TestLookupAndFill:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert not cache.lookup(0x1000)
        cache.fill(0x1000)
        assert cache.lookup(0x1000)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_same_line_different_offsets_hit(self):
        cache = small_cache()
        cache.fill(0x1000)
        assert cache.lookup(0x103F)

    def test_adjacent_lines_are_distinct(self):
        cache = small_cache()
        cache.fill(0x1000)
        assert not cache.lookup(0x1040)

    def test_contains_has_no_side_effects(self):
        cache = small_cache()
        cache.fill(0x1000)
        before = (cache.stats.hits, cache.stats.misses)
        assert cache.contains(0x1000)
        assert not cache.contains(0x2000)
        assert (cache.stats.hits, cache.stats.misses) == before

    def test_refill_does_not_evict(self):
        cache = small_cache()
        cache.fill(0x1000)
        assert cache.fill(0x1000) is None
        assert cache.occupancy() == 1


class TestEviction:
    def test_conflict_eviction_in_one_set(self):
        cache = small_cache(ways=2, sets=4)
        # Three lines mapping to set 0 (stride = sets * line = 0x100).
        cache.fill(0x0000)
        cache.fill(0x0100)
        evicted = cache.fill(0x0200)
        assert evicted == 0x0000  # LRU victim
        assert not cache.contains(0x0000)
        assert cache.stats.evictions == 1

    def test_lru_refresh_changes_victim(self):
        cache = small_cache(ways=2, sets=4)
        cache.fill(0x0000)
        cache.fill(0x0100)
        cache.lookup(0x0000)  # refresh
        evicted = cache.fill(0x0200)
        assert evicted == 0x0100

    def test_eviction_returns_line_address(self):
        cache = small_cache(ways=1, sets=4)
        cache.fill(0x1040)
        evicted = cache.fill(0x1140)
        assert evicted == 0x1040


class TestInvalidate:
    def test_invalidate_present_line(self):
        cache = small_cache()
        cache.fill(0x1000)
        assert cache.invalidate(0x1000)
        assert not cache.contains(0x1000)
        assert cache.stats.flushes == 1

    def test_invalidate_absent_line(self):
        cache = small_cache()
        assert not cache.invalidate(0x9000)

    def test_reset_empties_the_cache(self):
        cache = small_cache()
        cache.fill(0x0)
        cache.fill(0x40)
        cache.reset()
        assert cache.occupancy() == 0
        assert cache.resident_lines() == []
        assert cache.stats.fills == 0
        assert cache._sets == {}

    def test_invalidated_way_reused_first(self):
        cache = small_cache(ways=2, sets=4)
        cache.fill(0x0000)
        cache.fill(0x0100)
        cache.invalidate(0x0000)
        evicted = cache.fill(0x0200)
        assert evicted is None  # used the invalid way
        assert cache.contains(0x0100)


class TestStats:
    def test_hit_rate(self):
        cache = small_cache()
        cache.fill(0x0)
        cache.lookup(0x0)
        cache.lookup(0x40)
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_hit_rate_empty(self):
        assert small_cache().stats.hit_rate == 0.0

    def test_reset(self):
        cache = small_cache()
        cache.fill(0x0)
        cache.lookup(0x0)
        cache.stats.reset()
        assert cache.stats.accesses == 0
        assert cache.contains(0x0)  # contents preserved

    def test_resident_lines_sorted(self):
        cache = small_cache()
        cache.fill(0x80)
        cache.fill(0x0)
        assert cache.resident_lines() == [0x0, 0x80]
