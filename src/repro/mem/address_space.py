"""Virtual address space of the simulated process.

Owns the frame allocator and the page table, hands out virtual regions,
and provides the OS-visible mutation events (unmap, remap, migrate) that
drive TLB shootdowns and — once an STLT is attached — the invalid page
buffer protocol of Section III-D1.

Layout: user heap regions grow upward from ``USER_BASE``; the kernel
region (where the OS places the STLT) grows from ``KERNEL_BASE``.  The
split matters because user-space loads must never touch kernel addresses
(Section III-F allocates the STLT in kernel space precisely so that user
loads and stores cannot reach it).
"""

from __future__ import annotations

import types
import weakref
from typing import Callable, List, Optional

from ..errors import AddressError, ConfigError
from ..params import PAGE_BYTES, PAGE_SHIFT, VA_BITS
from .page_table import PageTable

#: Base of user heap allocations.
USER_BASE = 0x0000_1000_0000
#: Base of the simulated kernel direct-map region (top half of 48 bits).
KERNEL_BASE = 0x0000_8000_0000_0000 >> 1  # 0x4000_0000_0000, top of user half


class FrameAllocator:
    """Monotonic physical frame allocator."""

    def __init__(self, start_pfn: int = 1) -> None:
        if start_pfn < 1:
            raise ConfigError("frame 0 is reserved as the null frame")
        self._next = start_pfn

    def alloc(self) -> int:
        pfn = self._next
        self._next += 1
        return pfn


class AddressSpace:
    """One simulated process address space: regions + page table."""

    def __init__(self) -> None:
        self.frames = FrameAllocator()
        self.page_table = PageTable(self.frames.alloc)
        self._next_user_va = USER_BASE
        self._next_kernel_va = KERNEL_BASE
        #: observers of every invalidated page (add_invalidation_hook),
        #: each a zero-argument callable that returns the hook, or None
        #: once a weakly held hook's object is gone
        self._invalidation_hooks: List[Callable[[], Optional[Callable]]] = []

    # -- region allocation ---------------------------------------------

    def alloc_region(self, size_bytes: int, kernel: bool = False) -> int:
        """Reserve and eagerly map a page-aligned region; returns its base VA."""
        if size_bytes <= 0:
            raise ConfigError("region size must be positive")
        pages = (size_bytes + PAGE_BYTES - 1) // PAGE_BYTES
        if kernel:
            base = self._next_kernel_va
            self._next_kernel_va += pages * PAGE_BYTES
        else:
            base = self._next_user_va
            self._next_user_va += pages * PAGE_BYTES
        if (base + pages * PAGE_BYTES) >= (1 << VA_BITS):
            raise AddressError("virtual address space exhausted")
        vpn = base >> PAGE_SHIFT
        for i in range(pages):
            self.page_table.map(vpn + i, self.frames.alloc())
        return base

    def is_kernel_address(self, vaddr: int) -> bool:
        return vaddr >= KERNEL_BASE

    # -- translation helpers --------------------------------------------

    def translate(self, vaddr: int) -> Optional[int]:
        """Untimed VA -> PA translation; None when unmapped."""
        pfn = self.page_table.lookup(vaddr >> PAGE_SHIFT)
        if pfn is None:
            return None
        return (pfn << PAGE_SHIFT) | (vaddr & (PAGE_BYTES - 1))

    # -- OS mutation events ----------------------------------------------

    def add_invalidation_hook(self, hook: Callable[[int], None]) -> None:
        """Call ``hook(vpn)`` for every invalidated page, before its PTE
        changes: the hook point for flush_tlb_* (Sec. III-D1).

        A bound method is held through :class:`weakref.WeakMethod`: its
        object (a memory system, the kernel's STLT manager, a fast-path
        memo) holds this space, and a strong reference back would make
        every engine a reference cycle that only the cyclic collector
        frees.  Once that object is gone its hook is skipped.  Any
        other callable is held strongly.
        """
        if isinstance(hook, types.MethodType):
            self._invalidation_hooks.append(weakref.WeakMethod(hook))
        else:
            self._invalidation_hooks.append(lambda: hook)

    def _fire_invalidation(self, vpn: int) -> None:
        for ref in self._invalidation_hooks:
            hook = ref()
            if hook is not None:
                hook(vpn)

    def unmap_page(self, vaddr: int) -> None:
        """Unmap the page containing ``vaddr`` (e.g. madvise/munmap)."""
        vpn = vaddr >> PAGE_SHIFT
        self._fire_invalidation(vpn)
        self.page_table.unmap(vpn)

    def remap_page(self, vaddr: int) -> int:
        """Map the (currently unmapped) page of ``vaddr`` to a fresh frame.

        The second half of an unmap/remap churn cycle (page reclaimed and
        later faulted back in).  No invalidation fires — there was no
        valid translation to shoot down; stale cached entries for the
        page were already pushed through :meth:`unmap_page`'s hooks.
        Returns the new pfn.
        """
        vpn = vaddr >> PAGE_SHIFT
        if self.page_table.lookup(vpn) is not None:
            raise AddressError(
                f"remap of page {vpn:#x} which is still mapped")
        new_pfn = self.frames.alloc()
        self.page_table.map(vpn, new_pfn)
        return new_pfn

    def migrate_page(self, vaddr: int) -> int:
        """Move a page to a fresh physical frame (swap/compaction/NUMA).

        Returns the new pfn.  This changes the VA -> PA mapping while the
        VA stays valid, which is exactly the event that makes stale PTEs
        in the STLT dangerous and motivates the IPB (Section III-D1).
        """
        vpn = vaddr >> PAGE_SHIFT
        self._fire_invalidation(vpn)
        self.page_table.unmap(vpn)
        new_pfn = self.frames.alloc()
        self.page_table.map(vpn, new_pfn)
        return new_pfn
