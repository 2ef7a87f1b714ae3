"""Unit tests for the prefetcher models."""

from repro.mem.hierarchy import MemorySystem
from repro.mem.prefetch import (
    DistanceTLBPrefetcher,
    StreamPrefetcher,
    VLDPPrefetcher,
)
from repro.params import DEFAULT_MACHINE, PAGE_BYTES


class TestStreamPrefetcher:
    def test_sequential_misses_trigger_prefetch(self):
        pf = StreamPrefetcher(degree=2)
        assert pf.observe(100, was_miss=True) == []
        preds = pf.observe(101, was_miss=True)
        assert preds == [102, 103]

    def test_random_misses_do_not_trigger(self):
        pf = StreamPrefetcher()
        pf.observe(100, was_miss=True)
        assert pf.observe(500, was_miss=True) == []

    def test_hits_do_not_trigger(self):
        pf = StreamPrefetcher()
        pf.observe(100, was_miss=True)
        assert pf.observe(101, was_miss=False) == []

    def test_stream_table_is_bounded(self):
        pf = StreamPrefetcher(streams=4)
        for line in range(0, 1000, 17):
            pf.observe(line, was_miss=True)
        assert len(pf._streams) <= 4


class TestVLDPPrefetcher:
    def test_repeated_delta_is_predicted(self):
        pf = VLDPPrefetcher(degree=1)
        page = 10 * (PAGE_BYTES // 64)
        pf.observe(page + 0, was_miss=True)
        preds = pf.observe(page + 4, was_miss=True)  # delta 4
        assert page + 8 in preds

    def test_predictions_stay_within_page(self):
        pf = VLDPPrefetcher(degree=8)
        lines_per_page = PAGE_BYTES // 64
        page = 3 * lines_per_page
        pf.observe(page + 50, was_miss=True)
        preds = pf.observe(page + 60, was_miss=True)
        for p in preds:
            assert page <= p < page + lines_per_page

    def test_learned_sequence_chains(self):
        pf = VLDPPrefetcher(degree=2)
        lpp = PAGE_BYTES // 64
        # teach delta 2 -> delta 5 on one page
        pf.observe(0, True)
        pf.observe(2, True)
        pf.observe(7, True)
        # replay delta 2 on a fresh page: prediction should use 5 next
        page = 5 * lpp
        pf.observe(page + 0, True)
        preds = pf.observe(page + 2, True)
        assert preds[0] == page + 7


class TestDistanceTLBPrefetcher:
    def test_repeated_distance_predicted(self):
        pf = DistanceTLBPrefetcher(degree=1)
        pf.observe_miss(100)
        pf.observe_miss(110)  # distance 10
        preds = pf.observe_miss(120)  # distance 10 again
        assert 130 in preds

    def test_no_prediction_for_novel_distance(self):
        pf = DistanceTLBPrefetcher()
        pf.observe_miss(100)
        assert pf.observe_miss(117) == []


class TestPrefetcherIntegration:
    def test_prefetches_counted_and_polluting(self, space):
        mem = MemorySystem(space, DEFAULT_MACHINE,
                           stream_prefetcher=StreamPrefetcher(degree=2))
        region = space.alloc_region(64 * PAGE_BYTES)
        # a long sequential scan with cold caches: streams detected
        for off in range(0, 32 * 1024, 64):
            mem.access(region + off, 8)
        assert mem.stats.prefetches_issued > 0
        assert mem.stats.prefetches_useful > 0

    def test_evicted_tlb_prefetch_is_not_useful_after_a_refill(self, space):
        """A prefetched vpn that leaves the STLB loses its flag: a walk
        that refills it later is a demand fill, not a useful prefetch."""
        mem = MemorySystem(space, DEFAULT_MACHINE,
                           tlb_prefetcher=DistanceTLBPrefetcher(degree=1))
        stlb = mem.tlbs.l2
        num_sets = stlb._num_sets
        # ``ways`` pages of one set at growing strides (1, 3, 6, ... sets
        # past the target): no distance repeats, so the prefetcher
        # predicts nothing while they evict the target
        evictors = [i * (i + 1) // 2 * num_sets
                    for i in range(1, stlb._ways + 1)]
        region = space.alloc_region((evictors[-1] + 4) * PAGE_BYTES)
        base = region // PAGE_BYTES

        def touch(vpn):
            mem.access(vpn * PAGE_BYTES, 8)
            assert all(stlb.contains(v) for v in mem._prefetched_vpns)

        for vpn in (base, base + 1, base + 2):  # three stride-1 walks
            touch(vpn)
        target = base + 3
        assert mem._prefetched_vpns == {target}
        for offset in evictors:
            touch(target + offset)
        assert not stlb.contains(target)
        touch(target)  # a walk refills it
        mem.tlbs.l1.flush()
        touch(target)  # an STLB hit on a demand-filled vpn
        assert mem.stats.tlb_prefetches_useful == 0

    def test_invalidation_and_flush_drop_prefetch_flags(self, space):
        mem = MemorySystem(space, DEFAULT_MACHINE,
                           tlb_prefetcher=DistanceTLBPrefetcher(degree=1))
        region = space.alloc_region(8 * PAGE_BYTES)
        for i in range(3):
            mem.access(region + i * PAGE_BYTES, 8)
        target = region + 3 * PAGE_BYTES
        assert mem._prefetched_vpns == {target // PAGE_BYTES}
        space.migrate_page(target)
        assert not mem._prefetched_vpns
        for i in range(4, 7):
            mem.access(region + i * PAGE_BYTES, 8)
        assert mem._prefetched_vpns
        mem.tlb_flush()
        assert not mem._prefetched_vpns

    def test_tlb_prefetcher_fills_stlb(self, space):
        mem = MemorySystem(space, DEFAULT_MACHINE,
                           tlb_prefetcher=DistanceTLBPrefetcher(degree=1))
        region = space.alloc_region(64 * PAGE_BYTES)
        # strided page walk: constant vpn distance
        for i in range(20):
            mem.access(region + i * PAGE_BYTES, 8)
        assert mem.stats.tlb_prefetches_issued > 0
