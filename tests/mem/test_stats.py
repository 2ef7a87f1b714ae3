"""Unit tests for the statistics bundle."""

import json
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.mem.stats import DERIVED_FIELDS, MemoryStats


class TestSnapshotDelta:
    def test_delta_isolates_window(self):
        stats = MemoryStats()
        stats.reads = 10
        snap = stats.snapshot()
        stats.reads = 25
        assert stats.delta(snap).accesses == 15

    def test_snapshot_is_independent(self):
        stats = MemoryStats()
        snap = stats.snapshot()
        stats.l2_hits = 5
        assert snap.l1_misses == 0

    def test_merge(self):
        a = MemoryStats(reads=3, l1_hits=2)
        b = MemoryStats(reads=4, l1_hits=1)
        a.merge(b)
        assert a.accesses == 7
        assert a.l1_hits == 3


class TestDerivedRatios:
    def test_tlb_miss_rate(self):
        stats = MemoryStats(reads=100, stlb_misses=25)
        assert stats.tlb_miss_rate == 0.25

    def test_rates_zero_when_empty(self):
        stats = MemoryStats()
        assert stats.tlb_miss_rate == 0.0
        assert stats.l1_miss_rate == 0.0
        assert stats.llc_miss_rate == 0.0
        assert stats.prefetch_accuracy == 0.0

    def test_l1_miss_rate(self):
        stats = MemoryStats(l1_hits=75, l2_hits=25)
        assert stats.l1_miss_rate == 0.25

    def test_prefetch_accuracy(self):
        stats = MemoryStats(prefetches_issued=10, prefetches_useful=3)
        assert stats.prefetch_accuracy == 0.3

    def test_cache_misses_alias(self):
        stats = MemoryStats(l2_hits=7)
        assert stats.cache_misses == 7


#: one core's bundle as the stores hold it, derived counts included
PARENT_FORMAT = {
    "accesses": 30, "reads": 22, "writes": 8,
    "dtlb_hits": 11, "dtlb_misses": 19, "stlb_hits": 4, "stlb_misses": 15,
    "stb_hits": 0, "stb_misses": 0, "page_walks": 15, "walk_cycles": 900,
    "l1_hits": 110, "l1_misses": 92, "l2_hits": 3, "l2_misses": 89,
    "l3_hits": 16, "l3_misses": 73, "dram_accesses": 73,
    "dram_queue_cycles": 11408, "dram_busy_cycles": 4088,
    "dram_max_queue_cycles": 1608, "prefetches_issued": 0,
    "prefetches_useful": 0, "tlb_prefetches_issued": 0,
    "tlb_prefetches_useful": 0, "total_cycles": 23300,
}


class TestSerialisation:
    def test_derived_counts_sum_their_parts(self):
        stats = MemoryStats.from_dict(PARENT_FORMAT)
        assert stats.accesses == stats.reads + stats.writes
        assert stats.dtlb_misses == stats.stlb_hits + stats.stlb_misses
        assert stats.l1_misses == stats.l2_hits + stats.l2_misses
        assert stats.l2_misses == stats.l3_hits + stats.l3_misses
        assert stats.dram_accesses == stats.l3_misses

    def test_round_trip(self):
        stats = MemoryStats.from_dict(PARENT_FORMAT)
        data = stats.to_dict()
        assert set(DERIVED_FIELDS) <= set(data)
        assert MemoryStats.from_dict(data) == stats

    def test_parent_format_loads(self):
        stats = MemoryStats.from_dict(PARENT_FORMAT)
        assert stats.to_dict() == PARENT_FORMAT

    def test_stored_golden_bundles_load(self):
        golden = json.loads((Path(__file__).resolve().parents[1] / "data"
                             / "golden_smoke.json").read_text())
        for name, entry in golden.items():
            stats = MemoryStats.from_dict(entry["mem"])
            for key, value in entry["mem"].items():
                assert getattr(stats, key) == value, (name, key)

    def test_loads_without_derived_counts(self):
        fields_only = {k: v for k, v in PARENT_FORMAT.items()
                       if k not in DERIVED_FIELDS}
        assert MemoryStats.from_dict(fields_only).to_dict() == PARENT_FORMAT

    def test_wrong_derived_count_raises(self):
        with pytest.raises(ReproError, match="l1_misses"):
            MemoryStats.from_dict(dict(PARENT_FORMAT, l1_misses=93))

    def test_unknown_key_raises(self):
        with pytest.raises(TypeError, match="l4_hits"):
            MemoryStats.from_dict(dict(PARENT_FORMAT, l4_hits=1))

    def test_derived_counts_are_read_only(self):
        with pytest.raises(AttributeError):
            MemoryStats().accesses = 1
