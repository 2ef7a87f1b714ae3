"""TLB models: a set-associative TLB level and the two-level hierarchy.

Table III: L1 D-TLB is 4-way, 64 entries, 1 cycle; the L2 shared TLB is
4-way, 1536 entries, 7 cycles.  Both map virtual page numbers to physical
page numbers with LRU replacement within a set.  A TLB keeps no hit or
miss counters: :class:`~repro.mem.hierarchy.MemorySystem` probes and
fills both levels inline and counts each event once, in its
:class:`~repro.mem.stats.MemoryStats`.

The L2 TLB of Table III has 1536 entries = 384 sets at 4 ways, which is
not a power of two; real STLBs use such geometries with modulo indexing,
so the model indexes sets with ``vpn % num_sets`` instead of masking.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..params import TLBParams


class TLB:
    """One TLB level mapping vpn -> pfn, set-associative with LRU.

    Each set is a plain insertion-ordered dict, the LRU idiom of
    :mod:`repro.mem.cache`: a hit pops the vpn and re-inserts it, the
    victim is the first key.
    """

    def __init__(self, params: TLBParams) -> None:
        self.params = params
        self.name = params.name
        self.latency = params.latency
        self._ways = params.ways
        self._num_sets = params.entries // params.ways
        #: per set: vpn -> pfn, least recently used first
        self._sets: List[Dict[int, int]] = [{} for _ in range(self._num_sets)]

    def lookup(self, vpn: int) -> Optional[int]:
        """Return the pfn for ``vpn`` or None on miss."""
        s = self._sets[vpn % self._num_sets]
        pfn = s.pop(vpn, None)
        if pfn is not None:
            s[vpn] = pfn
        return pfn

    def insert(self, vpn: int, pfn: int) -> Optional[int]:
        """Fill ``vpn``; returns the evicted vpn, if any."""
        s = self._sets[vpn % self._num_sets]
        victim = None
        if vpn in s:
            del s[vpn]
        elif len(s) >= self._ways:
            victim = next(iter(s))
            del s[victim]
        s[vpn] = pfn
        return victim

    def contains(self, vpn: int) -> bool:
        """Presence probe without LRU update."""
        return vpn in self._sets[vpn % self._num_sets]

    def invalidate(self, vpn: int) -> bool:
        s = self._sets[vpn % self._num_sets]
        if vpn in s:
            del s[vpn]
            return True
        return False

    def flush(self) -> None:
        for s in self._sets:
            s.clear()

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def kernel_view(self):
        """Flat access view for the batched execution mode.

        TLB sets are modulo-indexed (``vpn % num_sets``, the geometry
        is not a power of two), so the view's ``set_mask`` is -1 and
        kernels must index by modulo.
        """
        from .kernels import SetArrayView
        return SetArrayView(self._sets, self._num_sets, self._ways,
                            -1, self.latency)

    def flat_state(self) -> List[int]:
        """VPN tag state as one flat set-major array (digests)."""
        from .kernels import flatten_sets
        return flatten_sets(self._sets, self._ways)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TLB({self.name}, {self.params.entries} entries, {self._ways}-way)"


class TLBHierarchy:
    """L1 D-TLB backed by the L2 shared TLB.

    The lookup protocol (an L1 miss probes the L2, an L2 hit refills the
    L1, an L2 miss leaves the walk to the STB or the page-table walker)
    runs inline in :meth:`repro.mem.hierarchy.MemorySystem._translate`;
    this pair carries the levels and the OS-driven invalidations.
    """

    def __init__(self, l1: TLB, l2: TLB) -> None:
        self.l1 = l1
        self.l2 = l2

    def invalidate(self, vpn: int) -> None:
        self.l1.invalidate(vpn)
        self.l2.invalidate(vpn)

    def flush(self) -> None:
        self.l1.flush()
        self.l2.flush()
