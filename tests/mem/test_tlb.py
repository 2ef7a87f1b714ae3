"""Unit tests for the TLB models."""

from repro.mem.tlb import TLB, TLBHierarchy
from repro.params import PAGE_BYTES, PAGE_SHIFT, TLBParams


def make_tlb(entries=8, ways=2, latency=1):
    return TLB(TLBParams("test-tlb", entries, ways, latency))


class TestTLB:
    def test_miss_then_hit(self):
        tlb = make_tlb()
        assert tlb.lookup(10) is None
        tlb.insert(10, 99)
        assert tlb.lookup(10) == 99

    def test_update_existing_mapping(self):
        tlb = make_tlb()
        tlb.insert(10, 1)
        tlb.insert(10, 2)
        assert tlb.lookup(10) == 2
        assert tlb.occupancy == 1

    def test_lru_within_set(self):
        tlb = make_tlb(entries=8, ways=2)  # 4 sets
        # vpns 0, 4, 8 all map to set 0
        tlb.insert(0, 100)
        tlb.insert(4, 104)
        tlb.lookup(0)
        tlb.insert(8, 108)  # evicts vpn 4 (LRU)
        assert tlb.lookup(4) is None
        assert tlb.lookup(0) == 100

    def test_non_pow2_sets_supported(self):
        # the Table III L2 STLB has 384 sets
        tlb = TLB(TLBParams("stlb", 1536, 4, 7))
        for vpn in range(2000):
            tlb.insert(vpn, vpn + 1)
        assert tlb.occupancy <= 1536

    def test_invalidate(self):
        tlb = make_tlb()
        tlb.insert(3, 30)
        assert tlb.invalidate(3)
        assert not tlb.invalidate(3)
        assert tlb.lookup(3) is None

    def test_flush(self):
        tlb = make_tlb()
        for vpn in range(4):
            tlb.insert(vpn, vpn)
        tlb.flush()
        assert tlb.occupancy == 0

    def test_contains_no_stats(self):
        """A TLB keeps no counters, and ``contains`` leaves the LRU
        order alone."""
        tlb = make_tlb(entries=8, ways=2)  # 4 sets
        tlb.insert(0, 100)
        tlb.insert(4, 104)
        assert tlb.contains(0)
        assert not tlb.contains(8)
        tlb.insert(8, 108)  # vpn 0 is still least recently used
        assert not tlb.contains(0)
        assert not hasattr(tlb, "hits") and not hasattr(tlb, "misses")


class TestHierarchy:
    """The two-level lookup runs inline in ``MemorySystem._translate``
    (entered on a D-TLB miss; Table III: D-TLB 1 cycle, STLB 7)."""

    def make(self):
        l1 = make_tlb(entries=4, ways=2, latency=1)
        l2 = make_tlb(entries=16, ways=4, latency=7)
        return TLBHierarchy(l1, l2), l1, l2

    @staticmethod
    def page(space):
        vpn = space.alloc_region(PAGE_BYTES) >> PAGE_SHIFT
        return vpn, space.page_table.lookup(vpn)

    def test_l1_hit_cost(self, mem, space):
        vpn, _ = self.page(space)
        mem.access(vpn << PAGE_SHIFT, 8)
        before = mem.attr["translation"]
        assert mem.access(vpn << PAGE_SHIFT, 8).tlb_hit
        assert mem.attr["translation"] - before == 1
        assert mem.stats.dtlb_hits == 1

    def test_l2_hit_refills_l1(self, mem, space):
        vpn, pfn = self.page(space)
        mem.tlbs.l2.insert(vpn, pfn)
        assert mem._translate(vpn) == (pfn, 1 + 7, True, False)
        assert mem.tlbs.l1.contains(vpn)
        assert mem.stats.stlb_hits == mem.stats.dtlb_misses == 1

    def test_full_miss(self, mem, space):
        vpn, pfn = self.page(space)
        got, cycles, tlb_hit, walked = mem._translate(vpn)
        assert (got, tlb_hit, walked) == (pfn, False, True)
        assert cycles == 1 + 7 + mem.stats.walk_cycles
        assert mem.stats.stlb_misses == mem.stats.page_walks == 1

    def test_fill_installs_both_levels(self, mem, space):
        vpn, _ = self.page(space)
        mem._translate(vpn)
        assert mem.tlbs.l1.contains(vpn)
        assert mem.tlbs.l2.contains(vpn)

    def test_invalidate_both_levels(self):
        h, l1, l2 = self.make()
        l1.insert(13, 130)
        l2.insert(13, 130)
        h.invalidate(13)
        assert not l1.contains(13)
        assert not l2.contains(13)
