"""OS support for STLT (Sections III-D1 and III-F).

Implements the three system calls::

    STLTalloc(n)   create an STLT of n rows (kernel memory, page aligned)
    STLTresize(n)  resize to n rows; contents are cleared
    STLTfree()     deallocate

plus the modified ``flush_tlb_*`` path: before any PTE invalidation the
kernel records the page's vpn in a per-process array and inserts it into
the IPB; when the IPB is full it clears the IPB and scrubs the STLT of
every page in the array (the rare, expensive path).  Context switches
clear the IPB on the way out and replay the array on the way in.

Every process can have at most one STLT.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from ..errors import STLTError
from ..mem.address_space import AddressSpace
from ..mem.hierarchy import MemorySystem
from .counters import ProbabilisticCounterPolicy
from .row import ROW_BYTES
from .stlt import STLT
from .stu import STU


class OSInterface:
    """Kernel-side manager of one process's STLT.

    The STLT is one shared kernel structure; on a multi-core machine the
    process runs on several cores, each with its own STU/STB.  Pass a
    sequence of STUs (one per core, sharing one IPB) and the kernel
    protocol broadcasts: ``STLTalloc`` loads CR_S on every core, and a
    page invalidation scrubs every core's STB before entering the shared
    IPB.  A single STU keeps the original single-core behaviour.
    """

    def __init__(self, space: AddressSpace, mem: MemorySystem,
                 stu: Union[STU, Sequence[STU]]) -> None:
        self.space = space
        self.mem = mem
        self.stus: List[STU] = (
            list(stu) if isinstance(stu, (list, tuple)) else [stu])
        if not self.stus:
            raise STLTError("OSInterface needs at least one STU")
        self.stlt: Optional[STLT] = None
        self._stlt_kernel_va: Optional[int] = None
        #: per-process kernel array of invalidated vpns (program context)
        self._invalidated_vpns: List[int] = []
        self.scrubs = 0
        self.rows_scrubbed = 0
        space.invalidation_hooks.append(self._on_page_invalidate)

    # ------------------------------------------------------------------
    # system calls
    # ------------------------------------------------------------------

    def stlt_alloc(self, num_rows: int, ways: int = 4,
                   counter_policy: Optional[ProbabilisticCounterPolicy] = None,
                   seed: int = 0x51C7) -> STLT:
        """STLTalloc: create the process's STLT and load CR_S on every
        core the process runs on."""
        if self.stlt is not None:
            raise STLTError("every process can have at most one STLT")
        kernel_va = self.space.alloc_region(num_rows * ROW_BYTES, kernel=True)
        base_pa = self.space.translate(kernel_va)
        if base_pa is None:
            raise STLTError("kernel STLT region failed to map")
        stlt = STLT(num_rows, ways=ways, base_pa=base_pa,
                    counter_policy=counter_policy, seed=seed)
        self.stlt = stlt
        self._stlt_kernel_va = kernel_va
        for stu in self.stus:
            stu.attach_stlt(stlt)
        return stlt

    def stlt_resize(self, num_rows: int) -> STLT:
        """STLTresize: adjust the size; content is cleared (Sec. III-F).

        The hash function the application uses is unknown to the OS, so
        entries cannot be rehashed in place — the whole table restarts
        cold, exactly as the paper specifies.
        """
        if self.stlt is None:
            raise STLTError("STLTresize with no STLT allocated")
        ways = self.stlt.ways
        policy = self.stlt.counter_policy
        self.stlt_free()
        return self.stlt_alloc(num_rows, ways=ways, counter_policy=policy)

    def stlt_free(self) -> None:
        """STLTfree: drop the table and clear CR_S on every core."""
        if self.stlt is None:
            raise STLTError("STLTfree with no STLT allocated")
        for stu in self.stus:
            stu.detach_stlt()
        self.stlt = None
        self._stlt_kernel_va = None
        self._invalidated_vpns.clear()

    # ------------------------------------------------------------------
    # flush_tlb_* hook (lazy coherence, Section III-D1)
    # ------------------------------------------------------------------

    def _on_page_invalidate(self, vpn: int) -> None:
        # the wrapped invlpg (TLB + STB invalidation) runs in each memory
        # system's own hook; here the kernel adds the STLT-side protocol,
        # which must reach *every* core's STB (even when detached from
        # the mem) before the page enters the shared IPB
        for stu in self.stus:
            stu.stb.invalidate(vpn)
        if self.stlt is None:
            return
        ipb = self.stus[0].ipb  # shared across cores when the engine wires it
        if ipb.is_full():
            # rare slow path: clear the IPB and scrub the STLT of every
            # page invalidated since the last scrub
            ipb.clear()
            self.rows_scrubbed += self.stlt.scrub_pages(set(self._invalidated_vpns))
            self.scrubs += 1
            self._invalidated_vpns.clear()
        self._invalidated_vpns.append(vpn)
        ipb.insert(vpn)

    # ------------------------------------------------------------------
    # context switches
    # ------------------------------------------------------------------

    def context_switch_out(self) -> None:
        """On switch-out the IPB is cleared without updating the STLT."""
        self.stus[0].ipb.clear()

    def context_switch_in(self) -> None:
        """On switch-in the kernel array is replayed into the IPB."""
        for vpn in self._invalidated_vpns:
            self.stus[0].ipb.insert(vpn)
