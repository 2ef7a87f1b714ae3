"""Integration-level tests for the full memory system."""

import pytest

from repro.core.row import make_pte
from repro.core.stb import STB
from repro.errors import PageFault
from repro.mem.hierarchy import MemorySystem
from repro.mem.types import AccessKind
from repro.params import DEFAULT_MACHINE, PAGE_BYTES


@pytest.fixture
def region(space):
    return space.alloc_region(64 * PAGE_BYTES)


class TestBasicAccess:
    def test_cold_access_walks_and_fills(self, mem, region):
        res = mem.access(region, 8)
        assert not res.tlb_hit
        assert res.walked
        assert res.cycles > DEFAULT_MACHINE.dram.latency_cycles

    def test_second_access_hits_tlb_and_l1(self, mem, region):
        mem.access(region, 8)
        res = mem.access(region, 8)
        assert res.tlb_hit
        assert not res.walked
        # 1 cycle TLB + 4 cycles L1
        assert res.cycles == 5

    def test_unmapped_access_faults(self, mem):
        with pytest.raises(PageFault):
            mem.access(0xDEAD_BEEF_000, 8)

    def test_multi_line_access_touches_each_line(self, mem, region):
        res = mem.access(region, 256)
        assert res.lines_touched == 4

    def test_unaligned_access_spans_extra_line(self, mem, region):
        res = mem.access(region + 60, 8)
        assert res.lines_touched == 2

    def test_cross_page_access_translates_twice(self, mem, region):
        res = mem.access(region + PAGE_BYTES - 8, 16)
        assert res.lines_touched == 2
        assert mem.stats.page_walks == 2

    def test_access_advances_clock(self, mem, region):
        before = mem.now
        res = mem.access(region, 8)
        assert mem.now == before + res.cycles

    def test_stats_accumulate(self, mem, region):
        mem.access(region, 8)
        mem.access(region, 8, write=True)
        assert mem.stats.accesses == 2
        assert mem.stats.reads == 1
        assert mem.stats.writes == 1


class TestCacheHierarchyTiming:
    def test_l1_eviction_falls_to_l2(self, mem, region):
        # touch enough distinct lines in one L1 set to evict the first
        machine = DEFAULT_MACHINE
        stride = machine.l1d.num_sets * 64
        lines = [region + i * stride for i in range(machine.l1d.ways + 1)]
        for va in lines:
            mem.access(va, 8)
        res = mem.access(lines[0], 8)
        # L1 miss, L2 hit: tlb(1) + l1(4) + l2(12)
        assert res.cycles == 1 + 4 + 12

    def test_pte_loads_are_cached(self, mem, region):
        mem.access(region, 8)
        walks_before = mem.stats.page_walks
        cold = mem.stats.walk_cycles
        # a neighbouring page shares all upper-level PTEs and the leaf line
        mem.access(region + PAGE_BYTES, 8)
        assert mem.stats.page_walks == walks_before + 1
        second_walk = mem.stats.walk_cycles - cold
        # the second walk's PTE loads all hit cache: 4 levels x 4 cycles
        assert second_walk == 16


class TestSTBIntegration:
    def test_stb_hit_skips_walk(self, mem, region):
        stb = STB()
        pa = mem.space.translate(region)
        stb.insert(region >> 12, make_pte(pa >> 12))
        mem.attach_stb(stb)
        res = mem.access(region, 8)
        assert not res.tlb_hit
        assert res.stb_hit
        assert not res.walked
        assert mem.stats.stb_hits == 1
        assert mem.stats.page_walks == 0

    def test_stb_miss_falls_through_to_walk(self, mem, region):
        mem.attach_stb(STB())
        res = mem.access(region, 8)
        assert res.walked
        assert mem.stats.stb_misses == 1

    def test_stb_hit_refills_tlb(self, mem, region):
        stb = STB()
        pa = mem.space.translate(region)
        stb.insert(region >> 12, make_pte(pa >> 12))
        mem.attach_stb(stb)
        mem.access(region, 8)
        res = mem.access(region, 8)
        assert res.tlb_hit

    def test_detach_stb(self, mem, region):
        mem.attach_stb(STB())
        mem.detach_stb()
        res = mem.access(region, 8)
        assert res.walked
        assert mem.stats.stb_misses == 0


class TestPhysicalAccess:
    def test_physical_access_skips_tlb(self, mem, region):
        pa = mem.space.translate(region)
        mem.physical_access(pa, 64)
        assert mem.stats.dtlb_hits == 0
        assert mem.stats.dtlb_misses == 0

    def test_physical_access_shares_data_caches(self, mem, region):
        pa = mem.space.translate(region)
        mem.physical_access(pa, 8)
        # virtual access to the same location should now L1-hit
        res = mem.access(region, 8)
        walk = res.cycles - 4  # subtract the L1 data latency
        assert mem.stats.l1_hits >= 1
        assert walk > 0  # translation still had to walk


class TestAttribution:
    def test_translation_vs_data_split(self, mem, region):
        mem.access(region, 8, kind=AccessKind.INDEX)
        assert mem.attr["translation"] > 0
        assert mem.attr["index"] > 0
        total = mem.attr["translation"] + mem.attr["index"]
        assert total == mem.stats.total_cycles

    def test_tick_attribution(self, mem):
        mem.tick(100, attr="hash")
        assert mem.attr["hash"] == 100

    def test_tlb_flush(self, mem, region):
        mem.access(region, 8)
        mem.tlb_flush()
        res = mem.access(region, 8)
        assert not res.tlb_hit
