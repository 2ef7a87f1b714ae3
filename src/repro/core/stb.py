"""STB: the 32-entry on-chip system translation buffer (Section III-D1).

A fully associative cache of VA/PTE pairs with FIFO replacement and no
eviction on probe.  ``loadVA`` inserts the translation of the row it
returns; the memory system probes the STB on every L2 TLB miss (Fig. 8b)
and, on a hit, refills the TLBs without a page walk.

The paper sizes the STB like the load buffer (32 entries) so the entry
inserted by a ``loadVA`` is still resident when the memory access that
follows it needs the translation.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..errors import ConfigError
from .row import pte_pfn, pte_present

STB_ENTRIES = 32


class STB:
    """Fully associative FIFO buffer of vpn -> PTE."""

    def __init__(self, entries: int = STB_ENTRIES) -> None:
        if entries <= 0:
            raise ConfigError("STB must have at least one entry")
        self.entries = entries
        #: vpn -> PTE in insertion order, oldest first
        self._buf: Dict[int, int] = {}
        self.inserts = 0
        self.probes = 0
        self.hits = 0

    def insert(self, vpn: int, pte: int) -> None:
        """FIFO-insert a translation; refreshing a vpn keeps its slot."""
        self.inserts += 1
        buf = self._buf
        # a re-inserted page is updated in place: FIFO order unchanged
        if vpn not in buf and len(buf) >= self.entries:
            del buf[next(iter(buf))]
        buf[vpn] = pte

    def probe(self, vpn: int) -> Optional[int]:
        """Return the pfn for ``vpn`` or None; FIFO order is unaffected."""
        self.probes += 1
        pte = self._buf.get(vpn)
        if pte is None or not pte_present(pte):
            return None
        self.hits += 1
        return pte_pfn(pte)

    def invalidate(self, vpn: int) -> bool:
        if vpn in self._buf:
            del self._buf[vpn]
            return True
        return False

    def clear(self) -> None:
        self._buf.clear()

    def __len__(self) -> int:
        return len(self._buf)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._buf
