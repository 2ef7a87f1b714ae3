"""Unit tests for the address space and OS mutation events."""

import weakref

import pytest

from repro.errors import ConfigError
from repro.mem.address_space import KERNEL_BASE, AddressSpace
from repro.mem.hierarchy import MemorySystem
from repro.params import PAGE_BYTES


class TestRegions:
    def test_regions_are_page_aligned_and_mapped(self, space):
        base = space.alloc_region(10_000)
        assert base % PAGE_BYTES == 0
        for offset in range(0, 12 * 1024, PAGE_BYTES):
            assert space.translate(base + offset) is not None

    def test_regions_do_not_overlap(self, space):
        a = space.alloc_region(PAGE_BYTES)
        b = space.alloc_region(PAGE_BYTES)
        assert abs(a - b) >= PAGE_BYTES

    def test_kernel_region_is_high(self, space):
        base = space.alloc_region(PAGE_BYTES, kernel=True)
        assert base >= KERNEL_BASE
        assert space.is_kernel_address(base)

    def test_user_region_is_low(self, space):
        base = space.alloc_region(PAGE_BYTES)
        assert not space.is_kernel_address(base)

    def test_zero_size_rejected(self, space):
        with pytest.raises(ConfigError):
            space.alloc_region(0)


class TestTranslate:
    def test_translation_preserves_offset(self, space):
        base = space.alloc_region(PAGE_BYTES)
        pa = space.translate(base + 123)
        assert pa is not None
        assert pa % PAGE_BYTES == 123

    def test_unmapped_translates_to_none(self, space):
        assert space.translate(0xDEAD000) is None

    def test_distinct_pages_distinct_frames(self, space):
        base = space.alloc_region(2 * PAGE_BYTES)
        pa0 = space.translate(base)
        pa1 = space.translate(base + PAGE_BYTES)
        assert pa0 // PAGE_BYTES != pa1 // PAGE_BYTES


class TestMutationEvents:
    def test_unmap_fires_hooks_then_removes(self, space):
        base = space.alloc_region(PAGE_BYTES)
        seen = []
        space.add_invalidation_hook(seen.append)
        space.unmap_page(base)
        assert seen == [base >> 12]
        assert space.translate(base) is None

    def test_migrate_changes_frame_keeps_va(self, space):
        base = space.alloc_region(PAGE_BYTES)
        old_pa = space.translate(base)
        new_pfn = space.migrate_page(base)
        new_pa = space.translate(base)
        assert new_pa is not None
        assert new_pa != old_pa
        assert new_pa >> 12 == new_pfn

    def test_migrate_fires_invalidation(self, space):
        base = space.alloc_region(PAGE_BYTES)
        seen = []
        space.add_invalidation_hook(seen.append)
        space.migrate_page(base)
        assert seen == [base >> 12]

    def test_dropped_memory_system_hook_is_skipped(self, space):
        # a memory system's hook is its bound method, held weakly: the
        # space keeps no system alive, and a dropped one is skipped
        # while a plain callable registered beside it still fires
        base = space.alloc_region(2 * PAGE_BYTES)
        mem = MemorySystem(space)
        mem.access(base, 8)
        seen = []
        space.add_invalidation_hook(seen.append)
        system = weakref.ref(mem)
        space.unmap_page(base)
        assert seen == [base >> 12]
        assert mem.tlbs.l1.lookup(base >> 12) is None
        del mem
        assert system() is None  # freed by reference counting alone
        space.unmap_page(base + PAGE_BYTES)
        assert seen == [base >> 12, (base >> 12) + 1]

    def test_live_bound_method_hook_fires(self, space):
        class Observer:
            def __init__(self):
                self.seen = []

            def on_invalidate(self, vpn):
                self.seen.append(vpn)

        base = space.alloc_region(PAGE_BYTES)
        observer = Observer()
        space.add_invalidation_hook(observer.on_invalidate)
        space.migrate_page(base)
        assert observer.seen == [base >> 12]
