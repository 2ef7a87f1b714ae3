"""IPB: the 32-entry invalid page buffer (Section III-D1).

A fully associative, FIFO, content-addressable buffer of virtual page
numbers whose PTEs were recently invalidated.  ``loadVA`` checks every
matching row's VA against the IPB and returns 0 (a miss) when the page is
listed, which is how STLT stays *lazily* coherent with the page table:
invalidations never have to search the big off-chip STLT on the critical
path of an unmap or migration.

The kernel interacts with it through the three instructions of the paper:
insert a vpn, clear the buffer, and check whether it is full.
"""

from __future__ import annotations

from typing import Dict

from ..errors import ConfigError

IPB_ENTRIES = 32


class IPB:
    """Fully associative FIFO buffer of invalidated vpns."""

    def __init__(self, entries: int = IPB_ENTRIES) -> None:
        if entries <= 0:
            raise ConfigError("IPB must have at least one entry")
        self.entries = entries
        #: vpn -> None in insertion order, oldest first
        self._buf: Dict[int, None] = {}
        self.inserts = 0
        self.probes = 0
        self.hits = 0

    # the three kernel-visible instructions -----------------------------

    def insert(self, vpn: int) -> None:
        """Instruction (1): insert the VA of an invalidated page."""
        self.inserts += 1
        if vpn in self._buf:
            return
        if len(self._buf) >= self.entries:
            # The kernel checks is_full() first, so hardware replacement
            # is a safety net; FIFO per the paper's CAM design.
            del self._buf[next(iter(self._buf))]
        self._buf[vpn] = None

    def clear(self) -> None:
        """Instruction (2): clear the buffer."""
        self._buf.clear()

    def is_full(self) -> bool:
        """Instruction (3): capacity check performed before invlpg."""
        return len(self._buf) >= self.entries

    # hardware-side probe (loadVA path) ----------------------------------

    def contains(self, vpn: int) -> bool:
        self.probes += 1
        hit = vpn in self._buf
        if hit:
            self.hits += 1
        return hit

    def __len__(self) -> int:
        return len(self._buf)
