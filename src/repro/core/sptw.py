"""SPTW: the simplified page-table walker used by ``insertSTLT``.

Section III-D2: the SPTW reuses the core's page walk but, on a
page fault, returns a null PTE instead of raising an interrupt.  STLT is
only a cache, so an ``insertSTLT`` whose VA has no valid translation is
simply a hint the hardware ignores.
"""

from __future__ import annotations

from typing import Tuple

from ..mem.hierarchy import MemorySystem
from ..params import PAGE_SHIFT
from .row import make_pte


class SimplifiedPTW:
    """Obtain a PTE for a VA via the MMU (TLB first, then a walk)."""

    def __init__(self, mem: MemorySystem) -> None:
        self.mem = mem
        self.walks = 0
        self.tlb_shortcuts = 0
        self.null_ptes = 0

    def resolve(self, vaddr: int) -> Tuple[int, int]:
        """Return ``(pte, cycles)``; pte is 0 when the VA is unmapped.

        Per the paper, the STU "obtains the PA of the record through the
        MMU (TLB or page table walk)": a TLB hit short-circuits the walk.
        The TLB probe here is a read-only peek — insertSTLT must not
        perturb replacement state for the program's own accesses.
        """
        vpn = vaddr >> PAGE_SHIFT
        tlbs = self.mem.tlbs
        cycles = tlbs.l1.latency
        hit_l1 = tlbs.l1.contains(vpn)
        if not hit_l1:
            cycles += tlbs.l2.latency
        if hit_l1 or tlbs.l2.contains(vpn):
            pfn = self.mem.space.page_table.lookup(vpn)
            if pfn is not None:
                self.tlb_shortcuts += 1
                return make_pte(pfn), cycles
        pfn, walk_cycles = self.mem.walk(vpn)
        cycles += walk_cycles
        self.walks += 1
        if pfn is None:
            self.null_ptes += 1
            return 0, cycles
        return make_pte(pfn), cycles
