"""Unit tests for the size-class heap allocator."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import AllocationError, ConfigError
from repro.mem.address_space import AddressSpace
from repro.mem.allocator import _BASE_CLASSES, _RUN_PAGES, BumpAllocator
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


class ReferenceAllocator:
    """The allocator as a class scan plus a separate bump step: the
    rule :meth:`BumpAllocator.alloc` computes in one step."""

    def __init__(self, space: AddressSpace) -> None:
        self.space = space
        self._cursor = {}
        self._limit = {}
        self._free = {}
        self._size_of = {}
        self.bytes_allocated = 0
        self.objects_live = 0

    def alloc(self, size: int) -> int:
        cls = linear_scan_class(size)
        free = self._free.get(cls)
        if free:
            va = free.pop()
        else:
            va = self._bump(cls)
        self._size_of[va] = cls
        self.bytes_allocated += cls
        self.objects_live += 1
        return va

    def free(self, va: int) -> None:
        cls = self._size_of.pop(va)
        self._free.setdefault(cls, []).append(va)
        self.bytes_allocated -= cls
        self.objects_live -= 1

    def _bump(self, cls: int) -> int:
        cursor = self._cursor.get(cls, 0)
        limit = self._limit.get(cls, 0)
        if cursor + cls > limit:
            run_bytes = max(_RUN_PAGES * PAGE_BYTES, cls)
            base = self.space.alloc_region(run_bytes)
            cursor = base
            limit = base + run_bytes
            self._limit[cls] = limit
        va = cursor
        self._cursor[cls] = cursor + cls
        return va


#: request sizes over several classes: small ones (many per run), and
#: sizes whose class fills a 16-page run in 16, 8, 4, 2 or 1 objects
#: (page multiples above 4,096 bytes, one larger than a run), so runs
#: are filled to their last byte
alloc_sizes = st.one_of(
    st.integers(1, 130),
    st.sampled_from([4095, 4096, 4097, 2 * PAGE_BYTES, 3 * PAGE_BYTES + 1,
                     8 * PAGE_BYTES, _RUN_PAGES * PAGE_BYTES,
                     _RUN_PAGES * PAGE_BYTES + 1]),
)
#: ("alloc", size, n): n allocations of one size in a row, as a store
#: build makes them; ("free", i, 1): free the i-th live object (mod count)
steps = st.lists(
    st.one_of(st.tuples(st.just("alloc"), alloc_sizes, st.integers(1, 20)),
              st.tuples(st.just("free"), st.integers(0, 10**6), st.just(1))),
    max_size=60)


class TestAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(steps)
    def test_interleaved_alloc_and_free_match(self, script):
        fast = BumpAllocator(AddressSpace())
        ref = ReferenceAllocator(AddressSpace())
        live = []
        for op, arg, count in script:
            for _ in range(count):
                if op == "alloc":
                    va = fast.alloc(arg)
                    assert va == ref.alloc(arg)
                    live.append(va)
                elif live:
                    va = live.pop(arg % len(live))
                    fast.free(va)
                    ref.free(va)
                assert fast._size_of == ref._size_of
                assert fast.bytes_allocated == ref.bytes_allocated
                assert fast.objects_live == ref.objects_live
                assert fast.space._next_user_va == ref.space._next_user_va

    def test_a_run_filled_exactly_is_not_refilled_early(self):
        # 1,024 objects of 64 bytes fill one 16-page run to its last
        # byte; the next one starts a new run
        fast = BumpAllocator(AddressSpace())
        ref = ReferenceAllocator(AddressSpace())
        per_run = _RUN_PAGES * PAGE_BYTES // 64
        for _ in range(per_run + 1):
            assert fast.alloc(64) == ref.alloc(64)
            assert fast.space._next_user_va == ref.space._next_user_va


def _run_script(script, allocators):
    """Apply a ``steps`` script to allocators kept in lockstep."""
    live = []
    for op, arg, count in script:
        for _ in range(count):
            if op == "alloc":
                va = allocators[0].alloc(arg)
                for other in allocators[1:]:
                    assert other.alloc(arg) == va
                live.append(va)
            elif live:
                va = live.pop(arg % len(live))
                for allocator in allocators:
                    allocator.free(va)


def _heap_state(allocator):
    return (allocator._cursor, allocator._limit, allocator._free,
            allocator._size_of, list(allocator._size_of),
            allocator.bytes_allocated, allocator.objects_live,
            allocator.space._next_user_va, allocator.space.frames._next)


class TestAllocRows:
    """``alloc_rows(sizes, n)`` against ``n`` rounds of ``alloc`` on the
    reference allocator, after a ``steps`` script has left the heap
    part-way through its runs, and some classes with freed objects,
    which ``alloc_rows`` refuses."""

    @settings(max_examples=60, deadline=None)
    @given(prefix=steps, sizes=st.lists(alloc_sizes, max_size=4),
           n=st.integers(0, 1500))
    # two classes refilling in turn, over several runs each
    @example(prefix=[], sizes=[24, 64], n=3000)
    # a repeated class (33 and 40 bytes), part-way through its run
    @example(prefix=[("alloc", 40, 20)], sizes=[40, 33, 24], n=2000)
    # page-multiple classes: 2, 8 and 17 pages
    @example(prefix=[("alloc", 4097, 3)],
             sizes=[4097, 8 * PAGE_BYTES, 64, _RUN_PAGES * PAGE_BYTES + 1],
             n=40)
    # a class with a freed object
    @example(prefix=[("alloc", 60, 3), ("free", 1, 1)], sizes=[24, 60], n=5)
    def test_matches_rounds_of_alloc(self, prefix, sizes, n):
        fast = BumpAllocator(AddressSpace())
        ref = ReferenceAllocator(AddressSpace())
        _run_script(prefix, [fast, ref])
        if any(fast._free.get(linear_scan_class(size)) for size in sizes):
            with pytest.raises(AllocationError):
                fast.alloc_rows(sizes, n)
            assert _heap_state(fast) == _heap_state(ref)
            return
        rows = fast.alloc_rows(sizes, n)
        expected = [[] for _ in sizes]
        for _ in range(n):
            for row, size in zip(expected, sizes):
                row.append(ref.alloc(size))
        assert rows == expected
        assert _heap_state(fast) == _heap_state(ref)

    def test_rejects_what_alloc_rejects(self):
        alloc = BumpAllocator(AddressSpace())
        with pytest.raises(ConfigError):
            alloc.alloc_rows([24, 0], 3)
        assert alloc.objects_live == 0
        assert alloc.space._next_user_va == AddressSpace()._next_user_va
