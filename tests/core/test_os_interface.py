"""OS interface tests: syscalls, coherence hook, context switches."""

import pytest

from repro.core.ipb import IPB_ENTRIES
from repro.core.os_interface import OSInterface
from repro.core.stu import STU
from repro.errors import STLTError
from repro.mem.allocator import BumpAllocator
from repro.mem.hierarchy import MemorySystem
from repro.params import DEFAULT_MACHINE


@pytest.fixture
def rig(space):
    mem = MemorySystem(space, DEFAULT_MACHINE)
    stu = STU(mem)
    osi = OSInterface(space, mem, stu)
    alloc = BumpAllocator(space)
    return space, mem, stu, osi, alloc


class TestSyscalls:
    def test_alloc_places_stlt_in_kernel_space(self, rig):
        space, _, stu, osi, _ = rig
        stlt = osi.stlt_alloc(1 << 8)
        assert stlt.base_pa is not None
        assert stu.crs.enabled
        assert stu.crs.num_rows == 1 << 8

    def test_one_stlt_per_process(self, rig):
        _, _, _, osi, _ = rig
        osi.stlt_alloc(1 << 8)
        with pytest.raises(STLTError):
            osi.stlt_alloc(1 << 8)

    def test_resize_clears_content(self, rig):
        _, _, stu, osi, alloc = rig
        osi.stlt_alloc(1 << 8)
        va = alloc.alloc(64)
        stu.insert_stlt(0x1234, va)
        new = osi.stlt_resize(1 << 10)
        assert new.num_rows == 1 << 10
        assert new.occupancy == 0
        assert stu.load_va(0x1234).missed

    def test_free_clears_crs(self, rig):
        _, _, stu, osi, _ = rig
        osi.stlt_alloc(1 << 8)
        osi.stlt_free()
        assert not stu.crs.enabled
        with pytest.raises(STLTError):
            osi.stlt_free()

    def test_resize_without_alloc_rejected(self, rig):
        _, _, _, osi, _ = rig
        with pytest.raises(STLTError):
            osi.stlt_resize(1 << 8)


class TestLazyCoherence:
    def _hot_row(self, rig):
        space, _, stu, osi, alloc = rig
        osi.stlt_alloc(1 << 8)
        va = alloc.alloc(64)
        stu.insert_stlt(0x4040, va)
        return space, stu, osi, alloc, va

    def test_page_invalidation_fills_ipb(self, rig):
        space, stu, osi, alloc, va = self._hot_row(rig)
        space.migrate_page(va)
        assert stu.ipb.contains(va >> 12)

    def test_loadva_filtered_after_invalidation(self, rig):
        space, stu, _, _, va = self._hot_row(rig)
        space.migrate_page(va)
        result = stu.load_va(0x4040)
        assert result.missed
        assert result.ipb_filtered

    def test_tlb_and_stb_invalidated(self, rig):
        space, stu, _, _, va = self._hot_row(rig)
        mem = stu.mem
        mem.access(va, 8)  # loads the TLB
        space.migrate_page(va)
        assert not mem.tlbs.l1.contains(va >> 12)
        assert not mem.tlbs.l2.contains(va >> 12)
        assert stu.stb.probe(va >> 12) is None

    def test_ipb_overflow_scrubs_stlt(self, rig):
        space, _, stu, osi, alloc = rig
        osi.stlt_alloc(1 << 8)
        # one hot row, then enough invalidations to overflow the IPB
        target = alloc.alloc(64)
        stu.insert_stlt(0x7070, target)
        space.migrate_page(target)  # targets the hot row's page
        pages = [space.alloc_region(4096) for _ in range(IPB_ENTRIES + 4)]
        for page in pages:
            space.unmap_page(page)
        assert osi.scrubs >= 1
        # the row for the migrated page must be gone even though the IPB
        # was cleared during the overflow
        result = stu.load_va(0x7070)
        assert result.missed

    def test_scrub_removes_only_invalidated_pages(self, rig):
        space, _, stu, osi, alloc = rig
        osi.stlt_alloc(1 << 8)
        keep = alloc.alloc(64)
        stu.insert_stlt(0x1111, keep)
        # overflow the IPB with unrelated pages
        for _ in range(IPB_ENTRIES + 4):
            page = space.alloc_region(4096)
            space.unmap_page(page)
        assert stu.load_va(0x1111).va == keep


class TestContextSwitch:
    def test_switch_out_clears_ipb(self, rig):
        space, _, stu, osi, alloc = rig
        osi.stlt_alloc(1 << 8)
        va = alloc.alloc(64)
        space.migrate_page(va)
        assert len(stu.ipb) == 1
        osi.context_switch_out()
        assert len(stu.ipb) == 0

    def test_switch_in_replays_kernel_array(self, rig):
        space, _, stu, osi, alloc = rig
        osi.stlt_alloc(1 << 8)
        va = alloc.alloc(64)
        stu.insert_stlt(0x2222, va)
        space.migrate_page(va)
        osi.context_switch_out()
        osi.context_switch_in()
        # protection is restored: the stale row is still filtered
        assert stu.load_va(0x2222).missed


class TestMultiCoreBroadcast:
    """One kernel OSInterface over several cores' STUs (PR 2)."""

    @pytest.fixture
    def multi_rig(self, space):
        from repro.core.ipb import IPB
        from repro.mem.shared import SharedMemory

        shared_mem = SharedMemory(DEFAULT_MACHINE)
        mems = [MemorySystem(space, DEFAULT_MACHINE, shared=shared_mem,
                             core_id=i) for i in range(3)]
        ipb = IPB()
        stus = [STU(mem, ipb=ipb) for mem in mems]
        osi = OSInterface(space, mems[0], stus)
        return space, stus, osi

    def test_alloc_loads_crs_on_every_core(self, multi_rig):
        _, stus, osi = multi_rig
        stlt = osi.stlt_alloc(1 << 8)
        for stu in stus:
            assert stu.crs.enabled
            assert stu.stlt is stlt

    def test_free_clears_crs_on_every_core(self, multi_rig):
        _, stus, osi = multi_rig
        osi.stlt_alloc(1 << 8)
        osi.stlt_free()
        for stu in stus:
            assert not stu.crs.enabled

    def test_invalidation_scrubs_every_cores_stb(self, multi_rig):
        from repro.core.row import make_pte

        space, stus, osi = multi_rig
        osi.stlt_alloc(1 << 8)
        va = space.alloc_region(4096)
        vpn = va >> 12
        for stu in stus:
            stu.stb.insert(vpn, make_pte(0x7))
        space.unmap_page(va)
        for stu in stus:
            assert stu.stb.probe(vpn) is None

    def test_stus_share_one_ipb(self, multi_rig):
        space, stus, osi = multi_rig
        osi.stlt_alloc(1 << 8)
        va = space.alloc_region(4096)
        space.unmap_page(va)
        seen = {id(stu.ipb) for stu in stus}
        assert len(seen) == 1
        assert stus[0].ipb.contains(va >> 12)

    def test_single_stu_keeps_legacy_behaviour(self, space):
        mem = MemorySystem(space, DEFAULT_MACHINE)
        stu = STU(mem)
        osi = OSInterface(space, mem, stu)
        assert osi.stus == [stu]


class TestCoherenceInvariants:
    """Direct invariant checks on the kernel protocol (PR 4).

    These exercise :meth:`OSInterface._on_page_invalidate`, the overflow
    scrub, context switches and ``STLTresize`` as pure state machines —
    no workload, no timing — asserting the properties the chaos injector
    leans on: stale vpns never survive a scrub, the kernel array and the
    IPB stay in sync, and a resize restarts the table cold but keeps its
    geometry.
    """

    def test_invalidate_hook_updates_array_and_ipb(self, rig):
        space, _, stu, osi, _ = rig
        osi.stlt_alloc(1 << 8)
        osi._on_page_invalidate(0xAB)
        osi._on_page_invalidate(0xCD)
        assert osi._invalidated_vpns == [0xAB, 0xCD]
        assert stu.ipb.contains(0xAB) and stu.ipb.contains(0xCD)
        assert osi.scrubs == 0

    def test_invalidate_without_stlt_only_scrubs_stbs(self, rig):
        space, _, stu, osi, _ = rig
        # no STLT allocated: the hook must not populate the IPB or the
        # kernel array (there is no table to lazily protect)
        osi._on_page_invalidate(0xAB)
        assert osi._invalidated_vpns == []
        assert len(stu.ipb) == 0

    def test_overflow_scrub_conserves_row_count(self, rig):
        space, _, stu, osi, alloc = rig
        stlt = osi.stlt_alloc(1 << 8)
        vas = [alloc.alloc(64) for _ in range(8)]
        for i, va in enumerate(vas):
            stu.insert_stlt(0x9000 + i, va)
        before = stlt.occupancy
        # invalidate half the hot pages, then overflow with unrelated
        # pages so the scrub fires
        stale_vpns = set()
        for va in vas[:4]:
            space.migrate_page(va)
            stale_vpns.add(va >> 12)
        scrubbed_before = osi.rows_scrubbed
        for _ in range(IPB_ENTRIES + 2):
            page = space.alloc_region(4096)
            space.unmap_page(page)
        assert osi.scrubs >= 1
        delta = osi.rows_scrubbed - scrubbed_before
        # every row the scrub claimed is actually gone from the table
        assert stlt.occupancy == before - delta
        assert delta >= len(stale_vpns.intersection(
            {va >> 12 for va in vas[:4]})) and delta >= 1

    def test_no_stale_vpn_survives_scrub(self, rig):
        space, _, stu, osi, alloc = rig
        stlt = osi.stlt_alloc(1 << 8)
        vas = [alloc.alloc(64) for _ in range(6)]
        for i, va in enumerate(vas):
            stu.insert_stlt(0x5000 + i, va)
        stale = {va >> 12 for va in vas[:3]}
        for va in vas[:3]:
            space.migrate_page(va)
        for _ in range(IPB_ENTRIES + 2):
            page = space.alloc_region(4096)
            space.unmap_page(page)
        assert osi.scrubs >= 1
        # walk every row: no surviving valid row may point into a page
        # that was invalidated before the scrub
        for s in range(stlt.num_sets):
            for w in range(stlt.ways):
                row = stlt.read_row(s, w)
                if row.valid:
                    assert (row.va >> 12) not in stale

    def test_overflow_resets_kernel_array_to_trigger_vpn(self, rig):
        space, _, stu, osi, alloc = rig
        osi.stlt_alloc(1 << 8)
        pages = [space.alloc_region(4096) for _ in range(IPB_ENTRIES + 1)]
        for page in pages[:-1]:
            space.unmap_page(page)
        assert stu.ipb.is_full()
        space.unmap_page(pages[-1])  # triggers the scrub
        # after the scrub the array holds exactly the triggering vpn,
        # and the IPB matches it — array and IPB stay in lock step
        assert osi._invalidated_vpns == [pages[-1] >> 12]
        assert len(stu.ipb) == 1
        assert stu.ipb.contains(pages[-1] >> 12)

    def test_switch_out_preserves_kernel_array(self, rig):
        space, _, stu, osi, alloc = rig
        osi.stlt_alloc(1 << 8)
        va = alloc.alloc(64)
        space.migrate_page(va)
        array_before = list(osi._invalidated_vpns)
        osi.context_switch_out()
        assert len(stu.ipb) == 0
        assert osi._invalidated_vpns == array_before

    def test_switch_in_replays_exactly_the_array(self, rig):
        space, _, stu, osi, alloc = rig
        osi.stlt_alloc(1 << 8)
        vas = [alloc.alloc(4096) for _ in range(3)]
        for va in vas:
            space.migrate_page(va)
        osi.context_switch_out()
        osi.context_switch_in()
        assert len(stu.ipb) == len({va >> 12 for va in vas})
        for va in vas:
            assert stu.ipb.contains(va >> 12)

    def test_resize_preserves_geometry_and_counters(self, rig):
        space, _, stu, osi, alloc = rig
        old = osi.stlt_alloc(1 << 8, ways=2)
        va = alloc.alloc(64)
        stu.insert_stlt(0x6001, va)
        space.migrate_page(alloc.alloc(4096))
        scrubs, rows = osi.scrubs, osi.rows_scrubbed
        new = osi.stlt_resize(1 << 9)
        # cold restart: empty table, kernel array cleared, stale hits
        # impossible
        assert new.num_rows == 1 << 9
        assert new.ways == old.ways == 2
        assert new.counter_policy is old.counter_policy
        assert new.occupancy == 0
        assert osi._invalidated_vpns == []
        assert stu.load_va(0x6001).missed
        # lifetime telemetry survives the resize (the run aggregates it)
        assert (osi.scrubs, osi.rows_scrubbed) == (scrubs, rows)
