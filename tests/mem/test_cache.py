"""Unit tests for the set-associative cache model."""

import pytest

from repro.errors import ConfigError
from repro.mem.cache import Cache
from repro.params import CacheParams


def make_cache(size=1024, ways=2, latency=4):
    return Cache(CacheParams("test", size, ways, latency))


class TestGeometry:
    def test_sets_and_ways(self):
        cache = make_cache(size=1024, ways=2)
        assert cache.params.num_lines == 16
        assert cache.params.num_sets == 8

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigError):
            Cache(CacheParams("bad", 1000, 2, 4))  # not a multiple of lines

    def test_non_pow2_sets_rejected(self):
        with pytest.raises(ConfigError):
            Cache(CacheParams("bad", 192 * 64, 2, 4))


class TestLookupInsert:
    def test_miss_then_hit(self):
        cache = make_cache()
        assert not cache.lookup(100)
        cache.insert(100)
        assert cache.lookup(100)

    def test_lines_map_to_sets_by_low_bits(self):
        cache = make_cache(size=1024, ways=2)  # 8 sets
        cache.insert(8)   # set 0
        cache.insert(16)  # set 0
        assert cache.set_contents(0) == [8, 16]
        assert cache.set_contents(1) == []

    def test_insert_same_line_is_idempotent(self):
        cache = make_cache()
        cache.insert(42)
        assert cache.insert(42) is None
        assert cache.occupancy == 1

    def test_contains_does_not_count_stats(self):
        """The memory system counts every probe in its ``MemoryStats``;
        a cache keeps no counters, and ``contains`` leaves the LRU
        order alone."""
        cache = make_cache(size=1024, ways=2)
        cache.insert(0)
        cache.insert(8)
        assert cache.contains(0)
        assert not cache.contains(6)
        assert cache.set_contents(0) == [0, 8]
        assert not hasattr(cache, "hits") and not hasattr(cache, "misses")


class TestLRU:
    def test_eviction_order_is_lru(self):
        cache = make_cache(size=1024, ways=2)  # 2-way
        a, b, c = 0, 8, 16  # all map to set 0
        cache.insert(a)
        cache.insert(b)
        victim = cache.insert(c)
        assert victim == a

    def test_lookup_refreshes_lru(self):
        cache = make_cache(size=1024, ways=2)
        a, b, c = 0, 8, 16
        cache.insert(a)
        cache.insert(b)
        cache.lookup(a)  # now b is LRU
        victim = cache.insert(c)
        assert victim == b

    def test_lookup_without_lru_update(self):
        cache = make_cache(size=1024, ways=2)
        a, b, c = 0, 8, 16
        cache.insert(a)
        cache.insert(b)
        cache.lookup(a, update_lru=False)
        victim = cache.insert(c)
        assert victim == a


class TestInvalidation:
    def test_invalidate_present_line(self):
        cache = make_cache()
        cache.insert(7)
        assert cache.invalidate(7)
        assert not cache.contains(7)

    def test_invalidate_absent_line(self):
        cache = make_cache()
        assert not cache.invalidate(7)

    def test_flush_empties_everything(self):
        cache = make_cache()
        for line in range(10):
            cache.insert(line)
        cache.flush()
        assert cache.occupancy == 0


class TestStats:
    def test_occupancy_bounded_by_capacity(self):
        cache = make_cache(size=1024, ways=2)  # 16 lines
        for line in range(100):
            cache.insert(line)
        assert cache.occupancy <= 16
