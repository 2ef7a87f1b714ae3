"""A 4-level x86-64 radix page table and its hardware walker's face.

The table is the real data structure, not an abstraction: each level is a
512-entry node living in its own physical frame, and every timed walk
(:meth:`repro.mem.hierarchy.MemorySystem.walk`) charges the memory
system one cache access at the physical address of each PTE it touches.
Modern cores cache page-table entries in the data caches; the paper
modified SniperSim to model exactly that, and so do we — the walk's PTE
loads go through L1/L2/L3 like any other physical access.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..errors import AddressError, PageFault
from ..params import PAGE_SHIFT, VA_BITS

#: Bits of VPN consumed by each radix level (PML4, PDPT, PD, PT).
LEVEL_BITS = 9
NUM_LEVELS = 4
ENTRIES_PER_TABLE = 1 << LEVEL_BITS
PTE_BYTES = 8

#: Maximum legal virtual page number for a 48-bit address space.
MAX_VPN = (1 << (VA_BITS - PAGE_SHIFT)) - 1


class _TableNode:
    """One 512-entry page-table node residing in physical frame ``pfn``."""

    __slots__ = ("pfn", "entries")

    def __init__(self, pfn: int) -> None:
        self.pfn = pfn
        self.entries: Dict[int, object] = {}


class PageTable:
    """Radix page table mapping vpn -> pfn.

    ``frame_alloc`` supplies physical frames for the table nodes
    themselves, so page-table pages and data pages share one physical
    address space and therefore compete for the same cache lines.
    """

    def __init__(self, frame_alloc: Callable[[], int]) -> None:
        self._frame_alloc = frame_alloc
        self.root = _TableNode(frame_alloc())
        self.mapped_pages = 0

    @staticmethod
    def _indices(vpn: int) -> Tuple[int, int, int, int]:
        return (
            (vpn >> (3 * LEVEL_BITS)) & (ENTRIES_PER_TABLE - 1),
            (vpn >> (2 * LEVEL_BITS)) & (ENTRIES_PER_TABLE - 1),
            (vpn >> LEVEL_BITS) & (ENTRIES_PER_TABLE - 1),
            vpn & (ENTRIES_PER_TABLE - 1),
        )

    def _check_vpn(self, vpn: int) -> None:
        if not 0 <= vpn <= MAX_VPN:
            raise AddressError(f"vpn {vpn:#x} outside the 48-bit address space")

    def map(self, vpn: int, pfn: int) -> None:
        """Install vpn -> pfn, creating intermediate nodes as needed."""
        self._check_vpn(vpn)
        idx = self._indices(vpn)
        node = self.root
        for level in range(NUM_LEVELS - 1):
            child = node.entries.get(idx[level])
            if child is None:
                child = _TableNode(self._frame_alloc())
                node.entries[idx[level]] = child
            node = child
        if idx[-1] not in node.entries:
            self.mapped_pages += 1
        node.entries[idx[-1]] = pfn

    def unmap(self, vpn: int) -> int:
        """Remove a mapping; returns the pfn it pointed to."""
        self._check_vpn(vpn)
        idx = self._indices(vpn)
        node = self.root
        for level in range(NUM_LEVELS - 1):
            child = node.entries.get(idx[level])
            if child is None:
                raise PageFault(vpn << PAGE_SHIFT)
            node = child
        pfn = node.entries.pop(idx[-1], None)
        if pfn is None:
            raise PageFault(vpn << PAGE_SHIFT)
        self.mapped_pages -= 1
        return pfn

    def lookup(self, vpn: int) -> Optional[int]:
        """Untimed translation probe; returns pfn or None."""
        self._check_vpn(vpn)
        idx = self._indices(vpn)
        node = self.root
        for level in range(NUM_LEVELS - 1):
            child = node.entries.get(idx[level])
            if child is None:
                return None
            node = child
        return node.entries.get(idx[-1])


class PageTableWalker:
    """The hardware page-table walker: ``walk(vpn)`` returns ``(pfn or
    None, cycles)``, a None pfn when the page is unmapped.

    :class:`repro.mem.hierarchy.MemorySystem` is the one walker: every
    core walks through its own data caches, so the timed walk is a
    method of the core's memory system rather than an object holding
    one of its methods (which would make each memory system a
    reference cycle).  The class stays as the named seam the e2e
    benchmark's tracer wraps (``benchmarks/e2e/trace.py`` times
    ``PageTableWalker.walk`` and every override of it).
    """

    def walk(self, vpn: int) -> Tuple[Optional[int], int]:
        raise NotImplementedError
