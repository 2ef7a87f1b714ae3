"""Unit tests for the size-class heap allocator."""

import pytest

from repro.errors import AllocationError, ConfigError
from repro.mem.allocator import _BASE_CLASSES, BumpAllocator
from repro.params import PAGE_BYTES


def linear_scan_class(size: int) -> int:
    """The reference rule: the first base class that fits, else whole
    pages."""
    for cls in _BASE_CLASSES:
        if size <= cls:
            return cls
    return ((size + PAGE_BYTES - 1) // PAGE_BYTES) * PAGE_BYTES


class TestSizeClasses:
    def test_every_size_matches_the_linear_scan(self):
        for size in range(1, 3 * PAGE_BYTES + 1):
            assert BumpAllocator.size_class(size) == \
                linear_scan_class(size), size

    def test_round_up_to_class(self):
        assert BumpAllocator.size_class(1) == 8
        assert BumpAllocator.size_class(100) == 112
        assert BumpAllocator.size_class(64) == 64

    def test_large_objects_round_to_pages(self):
        assert BumpAllocator.size_class(5000) == 2 * PAGE_BYTES

    def test_zero_size_rejected(self):
        with pytest.raises(ConfigError):
            BumpAllocator.size_class(0)


class TestAllocFree:
    def test_alloc_returns_mapped_address(self, alloc):
        va = alloc.alloc(64)
        assert alloc.space.translate(va) is not None

    def test_same_class_objects_are_dense(self, alloc):
        a = alloc.alloc(64)
        b = alloc.alloc(64)
        assert b - a == 64

    def test_different_classes_live_apart(self, alloc):
        a = alloc.alloc(64)
        b = alloc.alloc(128)
        assert abs(b - a) >= PAGE_BYTES

    def test_free_then_alloc_reuses_lifo(self, alloc):
        a = alloc.alloc(64)
        b = alloc.alloc(64)
        alloc.free(a)
        alloc.free(b)
        assert alloc.alloc(64) == b
        assert alloc.alloc(64) == a

    def test_double_free_rejected(self, alloc):
        va = alloc.alloc(64)
        alloc.free(va)
        with pytest.raises(AllocationError):
            alloc.free(va)

    def test_free_of_wild_pointer_rejected(self, alloc):
        with pytest.raises(AllocationError):
            alloc.free(0x1234)

    def test_accounting(self, alloc):
        a = alloc.alloc(60)
        assert alloc.objects_live == 1
        assert alloc.bytes_allocated == 64  # rounded to class
        alloc.free(a)
        assert alloc.objects_live == 0
        assert alloc.bytes_allocated == 0

    def test_allocated_size(self, alloc):
        va = alloc.alloc(100)
        assert alloc.allocated_size(va) == 112
        alloc.free(va)
        with pytest.raises(AllocationError):
            alloc.allocated_size(va)

    def test_many_allocations_stay_distinct(self, alloc):
        vas = [alloc.alloc(24) for _ in range(1000)]
        assert len(set(vas)) == 1000
