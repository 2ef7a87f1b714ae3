"""Simulated user-space heap allocator.

Index nodes and key-value records live at virtual addresses handed out by
this allocator.  It is a size-class bump allocator in the style of jemalloc
(which Redis uses): each size class carves objects out of its own runs of
pages.  Freed objects go on a per-class free list and are reused LIFO.

The layout consequences matter for the experiments: objects of one size
class are densely packed (64-byte records pack 64 per page), different
classes live on different pages, and a long-running store's records end
up scattered across many pages — the reason TLB reach is exceeded in the
paper's workloads.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, cycle
from typing import Dict, List, Sequence

from ..errors import AllocationError, ConfigError
from ..params import PAGE_BYTES
from .address_space import AddressSpace

#: jemalloc-like small size classes (bytes), followed by page-multiple
#: classes generated on demand for large objects.
_BASE_CLASSES = [
    8, 16, 24, 32, 40, 48, 56, 64, 80, 96, 112, 128,
    160, 192, 224, 256, 320, 384, 448, 512, 640, 768, 896, 1024,
    1280, 1536, 1792, 2048, 2560, 3072, 3584, 4096,
]

#: the largest small size; larger objects take whole pages
_SMALL_MAX = _BASE_CLASSES[-1]

#: size -> its class for sizes 1.._SMALL_MAX (index 0 unused), so
#: :meth:`BumpAllocator.alloc` and :meth:`BumpAllocator.size_class` read
#: instead of scanning
_SMALL_CLASS = [0] + [_BASE_CLASSES[bisect_left(_BASE_CLASSES, size)]
                      for size in range(1, _SMALL_MAX + 1)]

#: Pages fetched from the address space per size-class refill.
_RUN_PAGES = 16


class BumpAllocator:
    """Size-class segregated allocator over an :class:`AddressSpace`."""

    def __init__(self, space: AddressSpace) -> None:
        self.space = space
        self._cursor: Dict[int, int] = {}
        self._limit: Dict[int, int] = {}
        self._free: Dict[int, List[int]] = {}
        self._size_of: Dict[int, int] = {}
        self.bytes_allocated = 0
        self.objects_live = 0

    @staticmethod
    def size_class(size: int) -> int:
        """Round a request up to its size class."""
        if size <= 0:
            raise ConfigError("allocation size must be positive")
        if size <= _SMALL_MAX:
            return _SMALL_CLASS[size]
        # large objects: whole pages
        return ((size + PAGE_BYTES - 1) // PAGE_BYTES) * PAGE_BYTES

    def alloc(self, size: int) -> int:
        """Allocate ``size`` bytes; returns the object's virtual address."""
        cls = (_SMALL_CLASS[size] if 0 < size <= _SMALL_MAX
               else self.size_class(size))
        free = self._free.get(cls)
        if free:
            va = free.pop()
        else:
            # bump the class cursor, on a new run when the object does
            # not fit in the current one
            va = self._cursor.get(cls, 0)
            if va + cls > self._limit.get(cls, 0):
                va = self._refill(cls)
            self._cursor[cls] = va + cls
        self._size_of[va] = cls
        self.bytes_allocated += cls
        self.objects_live += 1
        return va

    def alloc_rows(self, sizes: Sequence[int], n: int) -> List[List[int]]:
        """Run ``n`` rounds of ``for size in sizes: alloc(size)`` at once.

        Returns one list per position of ``sizes``: the VAs that loop
        hands out at that position, round by round.  Cursors, limits,
        ``_size_of`` (its insertion order too), the counters, the
        address space and its page table end exactly as the loop leaves
        them.  Each class's refill points follow from its cursor and
        run size; ``_refill`` is called for them in the order the loop
        reaches them, since the runs of all classes share one region
        sequence.  The loop would hand out a class's freed objects
        first, so a class of ``sizes`` with freed objects is refused.
        """
        classes = [_SMALL_CLASS[size] if 0 < size <= _SMALL_MAX
                   else self.size_class(size) for size in sizes]
        if any(self._free.get(cls) for cls in classes):
            raise AllocationError("alloc_rows over a class with freed objects")
        # the j-th object of a class with k positions in a round is
        # allocated in round j // k, at its (j % k)-th position
        positions_of: Dict[int, List[int]] = {}
        for pos, cls in enumerate(classes):
            positions_of.setdefault(cls, []).append(pos)
        # objects that still fit the class's current run, objects per run
        room = {cls: (self._limit.get(cls, 0) - self._cursor.get(cls, 0))
                // cls for cls in positions_of}
        per_run = {cls: max(_RUN_PAGES * PAGE_BYTES, cls) // cls
                   for cls in positions_of}
        refills = []
        for cls, positions in positions_of.items():
            k = len(positions)
            refills.extend((j // k, positions[j % k], cls) for j in
                           range(room[cls], n * k, per_run[cls]))
        refills.sort()
        bases: Dict[int, List[int]] = {cls: [] for cls in positions_of}
        for _, _, cls in refills:
            bases[cls].append(self._refill(cls))
        rows: List[List[int]] = [[] for _ in sizes]
        for cls, positions in positions_of.items():
            k = len(positions)
            left = n * k
            cursor = self._cursor.get(cls, 0)
            take = min(left, room[cls])
            vas = list(range(cursor, cursor + take * cls, cls))
            left -= take
            for base in bases[cls]:
                take = min(left, per_run[cls])
                vas.extend(range(base, base + take * cls, cls))
                left -= take
            if vas:
                self._cursor[cls] = vas[-1] + cls
            for t, pos in enumerate(positions):
                rows[pos] = vas[t::k]
        self._size_of.update(zip(chain.from_iterable(zip(*rows)),
                                 cycle(classes)))
        self.bytes_allocated += n * sum(classes)
        self.objects_live += n * len(classes)
        return rows

    def free(self, va: int) -> None:
        """Return an object to its size-class free list."""
        cls = self._size_of.pop(va, None)
        if cls is None:
            raise AllocationError(f"free of unallocated address {va:#x}")
        self._free.setdefault(cls, []).append(va)
        self.bytes_allocated -= cls
        self.objects_live -= 1

    def allocated_size(self, va: int) -> int:
        """Size class of a live object (raises if not live)."""
        cls = self._size_of.get(va)
        if cls is None:
            raise AllocationError(f"{va:#x} is not a live allocation")
        return cls

    def _refill(self, cls: int) -> int:
        """Map a fresh run of pages for ``cls``; returns its base VA."""
        run_bytes = max(_RUN_PAGES * PAGE_BYTES, cls)
        base = self.space.alloc_region(run_bytes)
        self._limit[cls] = base + run_bytes
        return base
