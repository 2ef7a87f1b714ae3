"""Unit tests for the 4-level radix page table and walker."""

import pytest

from repro.errors import AddressError, PageFault
from repro.mem.address_space import FrameAllocator
from repro.mem.page_table import (
    ENTRIES_PER_TABLE,
    MAX_VPN,
    NUM_LEVELS,
    PTE_BYTES,
    PageTable,
    PageTableWalker,
)


@pytest.fixture
def table():
    frames = FrameAllocator()
    return PageTable(frames.alloc)


def recorded_walk(table, vpn):
    """``(pfn, PTE addresses in load order)`` of one timed walk, read
    through a ``cache_access`` stub that records every PTE load."""
    charged = []

    def cache_access(paddr):
        charged.append(paddr)
        return 1

    pfn, cycles = PageTableWalker(table, cache_access).walk(vpn)
    assert cycles == len(charged)
    return pfn, charged


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

    def test_vpn_out_of_range(self, table):
        with pytest.raises(AddressError):
            table.map(MAX_VPN + 1, 1)
        with pytest.raises(AddressError):
            table.lookup(-1)
        with pytest.raises(AddressError):
            recorded_walk(table, MAX_VPN + 1)
        with pytest.raises(AddressError):
            recorded_walk(table, -1)

    def test_max_vpn_is_mappable(self, table):
        table.map(MAX_VPN, 42)
        assert table.lookup(MAX_VPN) == 42

    def test_distinct_vpns_are_independent(self, table):
        for vpn in range(0, 4096, 7):
            table.map(vpn, vpn * 10)
        for vpn in range(0, 4096, 7):
            assert table.lookup(vpn) == vpn * 10


class TestWalkPath:
    def test_walk_touches_four_levels(self, table):
        table.map(0xABCDE, 9)
        pfn, paddrs = recorded_walk(table, 0xABCDE)
        assert pfn == 9
        assert len(paddrs) == NUM_LEVELS

    def test_walk_terminates_early_when_unmapped(self, table):
        pfn, paddrs = recorded_walk(table, 0xABCDE)
        assert pfn is None
        assert len(paddrs) == 1  # stops at the missing PML4 entry

    def test_pte_addresses_are_distinct_per_level(self, table):
        table.map(0x1, 1)
        _, paddrs = recorded_walk(table, 0x1)
        assert len(set(paddrs)) == NUM_LEVELS

    def test_adjacent_vpns_share_leaf_table(self, table):
        table.map(100, 1)
        table.map(101, 2)
        _, p1 = recorded_walk(table, 100)
        _, p2 = recorded_walk(table, 101)
        assert p1[:-1] == p2[:-1]
        assert p2[-1] - p1[-1] == PTE_BYTES

    def test_vpns_in_different_subtrees_diverge_at_root(self, table):
        table.map(0, 1)
        far = ENTRIES_PER_TABLE ** 3  # different PML4 slot
        table.map(far, 2)
        _, p1 = recorded_walk(table, 0)
        _, p2 = recorded_walk(table, far)
        assert p1[0] != p2[0]


class TestWalker:
    def test_walker_charges_cache_accesses(self, table):
        charged = []

        def cache_access(paddr):
            charged.append(paddr)
            return 10

        walker = PageTableWalker(table, cache_access)
        table.map(0x77, 5)
        pfn, cycles = walker.walk(0x77)
        assert pfn == 5
        assert cycles == 40
        assert len(charged) == 4
        assert walker.walks == 1

    def test_walker_fault_counted(self, table):
        walker = PageTableWalker(table, lambda paddr: 1)
        pfn, cycles = walker.walk(0x33)
        assert pfn is None
        assert walker.faults == 1
        assert cycles >= 1
