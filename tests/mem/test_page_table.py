"""Unit tests for the 4-level radix page table and the timed walk."""

import pytest

from repro.core.sptw import SimplifiedPTW
from repro.errors import AddressError, PageFault
from repro.mem.hierarchy import MemorySystem
from repro.mem.page_table import ENTRIES_PER_TABLE, MAX_VPN, NUM_LEVELS
from repro.params import PAGE_SHIFT


@pytest.fixture
def table(space):
    return space.page_table


class RecordingMemory(MemorySystem):
    """A memory system whose L1 never keeps a line: every PTE load of a
    walk misses the inline L1 probe and reaches ``_line_access``, which
    records the PTE's line and charges ``1 + line % 7`` cycles."""

    def __init__(self, space):
        super().__init__(space)
        self.loaded = []

    def _line_access(self, line, demand=True, at=-1):
        self.loaded.append(line)
        return 1 + line % 7


def recorded_walk(space, vpn):
    """``(pfn, PTE lines in load order)`` of one timed walk."""
    mem = RecordingMemory(space)
    pfn, cycles = mem.walk(vpn)
    assert cycles == sum(1 + line % 7 for line in mem.loaded)
    return pfn, mem.loaded


class TestMapping:
    def test_map_lookup_roundtrip(self, table):
        table.map(0x12345, 777)
        assert table.lookup(0x12345) == 777

    def test_unmapped_returns_none(self, table):
        assert table.lookup(0x999) is None

    def test_remap_overwrites(self, table):
        table.map(5, 1)
        table.map(5, 2)
        assert table.lookup(5) == 2
        assert table.mapped_pages == 1

    def test_unmap(self, table):
        table.map(5, 1)
        assert table.unmap(5) == 1
        assert table.lookup(5) is None
        assert table.mapped_pages == 0

    def test_unmap_missing_page_faults(self, table):
        with pytest.raises(PageFault):
            table.unmap(5)

    def test_unmap_missing_intermediate_faults(self, table):
        with pytest.raises(PageFault):
            table.unmap(1 << 30)

    def test_vpn_out_of_range(self, table, space):
        with pytest.raises(AddressError):
            table.map(MAX_VPN + 1, 1)
        with pytest.raises(AddressError):
            table.lookup(-1)
        with pytest.raises(AddressError):
            recorded_walk(space, MAX_VPN + 1)
        with pytest.raises(AddressError):
            recorded_walk(space, -1)

    def test_max_vpn_is_mappable(self, table):
        table.map(MAX_VPN, 42)
        assert table.lookup(MAX_VPN) == 42

    def test_distinct_vpns_are_independent(self, table):
        for vpn in range(0, 4096, 7):
            table.map(vpn, vpn * 10)
        for vpn in range(0, 4096, 7):
            assert table.lookup(vpn) == vpn * 10


class TestWalkPath:
    def test_walk_touches_four_levels(self, table, space):
        table.map(0xABCDE, 9)
        pfn, lines = recorded_walk(space, 0xABCDE)
        assert pfn == 9
        assert len(lines) == NUM_LEVELS

    def test_walk_terminates_early_when_unmapped(self, space):
        pfn, lines = recorded_walk(space, 0xABCDE)
        assert pfn is None
        assert len(lines) == 1  # stops at the missing PML4 entry

    def test_pte_addresses_are_distinct_per_level(self, table, space):
        table.map(0x1, 1)
        _, lines = recorded_walk(space, 0x1)
        assert len(set(lines)) == NUM_LEVELS

    def test_adjacent_vpns_share_leaf_table(self, table, space):
        # one line holds 8 PTEs: vpns 7 and 8 share every upper-level
        # PTE and load neighbouring lines of one leaf table
        table.map(7, 1)
        table.map(8, 2)
        _, p1 = recorded_walk(space, 7)
        _, p2 = recorded_walk(space, 8)
        assert p1[:-1] == p2[:-1]
        assert p2[-1] - p1[-1] == 1

    def test_vpns_in_different_subtrees_diverge_at_root(self, table, space):
        table.map(0, 1)
        far = 8 * ENTRIES_PER_TABLE ** 3  # a PML4 slot one line away
        table.map(far, 2)
        _, p1 = recorded_walk(space, 0)
        _, p2 = recorded_walk(space, far)
        assert p1[0] != p2[0]


class TestWalker:
    def test_walker_charges_cache_accesses(self, table, mem):
        # PTE loads go through the data caches: a cold walk's four
        # lines miss L1 and fill it, so the same walk again hits L1 at
        # every level
        table.map(0x77, 5)
        pfn, cold = mem.walk(0x77)
        assert pfn == 5
        assert mem.stats.l1_misses == NUM_LEVELS
        hits = mem.stats.l1_hits
        pfn, warm = mem.walk(0x77)
        assert pfn == 5
        assert warm == NUM_LEVELS * mem.l1.latency < cold
        assert mem.stats.l1_hits == hits + NUM_LEVELS
        assert mem.stats.l1_misses == NUM_LEVELS

    def test_walker_fault_counted(self, mem):
        # an unmapped page ends the walk with a None pfn; the access
        # path raises on it, the SPTW counts a null PTE
        pfn, cycles = mem.walk(0x33)
        assert pfn is None
        assert cycles >= 1
        with pytest.raises(PageFault):
            mem._translate(0x33)
        sptw = SimplifiedPTW(mem)
        pte, _cycles = sptw.resolve(0x33 << PAGE_SHIFT)
        assert pte == 0
        assert sptw.walks == sptw.null_ptes == 1
