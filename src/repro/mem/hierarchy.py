"""The memory system: TLBs -> (STB) -> page walk; L1 -> L2 -> L3 -> DRAM.

This is the timing heart of the simulator.  A :class:`MemorySystem` is
the *per-core private* half of the machine — L1/L2 caches, L1/L2 TLBs,
the STB hook, the prefetchers, the page-table walker, and the core's own
cycle clock, statistics, and cycle attribution.  The levels every core
shares (L3, the DRAM channel, the L3 prefetch-tracking set) live in a
:class:`~repro.mem.shared.SharedMemory` injected at construction; a
system built without one owns a private instance, which makes the
single-core machine identical to the pre-split monolith.

Every simulated memory access of the key-value store flows through
:meth:`MemorySystem.access`:

1. The virtual page number is translated by the L1 D-TLB, then the L2
   shared TLB.  On an L2 miss, if a system translation buffer (STB) has
   been attached by the STLT runtime, it is probed next (Fig. 8b of the
   paper); a hit refills the TLBs and skips the walk entirely.  Otherwise
   the hardware page-table walker loads PTEs through the data caches.
2. Each cache line spanned by the access is looked up in L1/L2/L3, and
   on a full miss fetched from DRAM (which models channel queueing).

Kernel-physical accesses (the STLT rows read and written by the STU) use
:meth:`MemorySystem.physical_access`, which skips the TLBs — the STU
addresses the STLT physically via the CR_S register — but shares the data
caches, so STLT rows compete for cache space exactly like data.

The system keeps a monotonically advancing cycle clock ``now`` used by
the DRAM channel model; functional (non-memory) work advances it via
:meth:`tick`.
"""

from __future__ import annotations

from typing import Optional, Set

from ..errors import PageFault
from ..params import (
    CACHE_LINE_BYTES,
    PAGE_BYTES,
    PAGE_SHIFT,
    DEFAULT_MACHINE,
    MachineParams,
)
from .address_space import AddressSpace
from .cache import Cache
from .page_table import PageTableWalker
from .prefetch import DistanceTLBPrefetcher, StreamPrefetcher, VLDPPrefetcher
from .shared import SharedMemory
from .stats import MemoryStats
from .tlb import TLB, TLBHierarchy
from .types import AccessKind, AccessResult

_LINE_SHIFT = 6
assert (1 << _LINE_SHIFT) == CACHE_LINE_BYTES
#: a line number's page is ``line >> _PAGE_LINE_SHIFT``; its line
#: within that page is ``line & _PAGE_LINE_MASK``
_PAGE_LINE_SHIFT = PAGE_SHIFT - _LINE_SHIFT
_PAGE_LINE_MASK = (1 << _PAGE_LINE_SHIFT) - 1


class MemorySystem:
    """Timing model of one core's private slice of the Table III machine.

    ``shared`` carries the levels all cores see (L3 + DRAM channel);
    when omitted, the system owns a private :class:`SharedMemory` and
    behaves exactly like the pre-split single-core machine.
    """

    def __init__(
        self,
        space: AddressSpace,
        machine: MachineParams = DEFAULT_MACHINE,
        stream_prefetcher: Optional[StreamPrefetcher] = None,
        vldp_prefetcher: Optional[VLDPPrefetcher] = None,
        tlb_prefetcher: Optional[DistanceTLBPrefetcher] = None,
        shared: Optional[SharedMemory] = None,
        core_id: int = 0,
    ) -> None:
        machine.validate()
        self.space = space
        self.machine = machine
        self.core_id = core_id
        # private levels
        self.l1 = Cache(machine.l1d)
        self.l2 = Cache(machine.l2)
        # shared levels (aliases into the SharedMemory so existing code
        # reading mem.l3 / mem.dram keeps working on both halves)
        if shared is None:
            shared = SharedMemory(machine)
        self.shared = shared
        self.l3 = shared.l3
        self.dram = shared.dram
        self.tlbs = TLBHierarchy(TLB(machine.dtlb), TLB(machine.stlb))
        self.walker = PageTableWalker(space.page_table, self._pte_cache_access)
        #: the one record of this core's memory events
        self.stats = MemoryStats()
        #: miss-path latency sums: an L2 hit, a line that reached L3, an
        #: STLB hit
        self._l2_hit_cycles = self.l1.latency + self.l2.latency
        self._l3_cycles = self._l2_hit_cycles + self.l3.latency
        self._stlb_hit_cycles = self.tlbs.l1.latency + self.tlbs.l2.latency
        self.now = 0

        #: attached by the STLT runtime (duck-typed: .probe(vpn) -> pfn|None)
        self.stb = None
        self.stb_probe_cycles = machine.instr.stb_probe_cycles

        #: attached by a translation accelerator backend (repro.accel;
        #: duck-typed: .resolve(mem, vpn) -> (pfn|None, cycles, walked),
        #: .invalidate(vpn), and a writable .kind_hint).  Probed on the
        #: L2-TLB-miss path *after* the STB slot; the backend owns the
        #: probe/walk/fill protocol and charges its internal costs via
        #: ``tick(..., attr="accel")`` so breakdowns stay per-design
        self.accel = None

        self.stream_prefetcher = stream_prefetcher
        self.vldp_prefetcher = vldp_prefetcher
        self.tlb_prefetcher = tlb_prefetcher
        self._data_prefetch = (stream_prefetcher is not None
                               or vldp_prefetcher is not None)
        self._prefetched_lines: Set[int] = shared.prefetched_lines
        #: vpns the TLB prefetcher put in the STLB and no demand access
        #: has used yet; a vpn leaves the set when it leaves the STLB
        self._prefetched_vpns: Set[int] = set()

        #: cycle attribution by category, powering the Fig. 1 breakdown:
        #: access cycles split into 'translation' vs. the access's kind;
        #: tick() callers can attribute functional work ('hash', ...)
        self.attr: dict = {}

        # the OS always flushes stale translations before changing a PTE
        # (flush_tlb_*); the STLT-specific IPB protocol is layered on top
        # by repro.core.os_interface
        space.invalidation_hooks.append(self._on_page_invalidate)

    def _on_page_invalidate(self, vpn: int) -> None:
        self.tlbs.invalidate(vpn)
        self._prefetched_vpns.discard(vpn)
        if self.stb is not None:
            self.stb.invalidate(vpn)
        if self.accel is not None:
            self.accel.invalidate(vpn)

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------

    def tick(self, cycles: int, attr: Optional[str] = None) -> None:
        """Advance the clock for functional (non-memory) work."""
        self.now += cycles
        self.stats.total_cycles += cycles
        if attr is not None:
            self.attr[attr] = self.attr.get(attr, 0) + cycles

    def charge(self, cycles: int, attr: Optional[str] = None) -> None:
        """Account cycles without advancing the shared-resource clock.

        Used by fault injection (``repro.chaos``): a slowed core's
        *measured* cycles and attribution grow, but ``now`` — which
        timestamps accesses at the shared L3/DRAM — stays in lockstep
        with the round-robin interleave.  Advancing the clock instead
        would park phantom far-future reservations on the shared
        channel and stall the *healthy* cores behind them, inverting
        the fault.
        """
        self.stats.total_cycles += cycles
        if attr is not None:
            self.attr[attr] = self.attr.get(attr, 0) + cycles

    # ------------------------------------------------------------------
    # cache path (physically addressed)
    # ------------------------------------------------------------------

    def _line_access(self, line_addr: int, demand: bool = True,
                     at: int = -1) -> int:
        """One line that missed L1, through L2 -> L3 -> DRAM and the
        fills back up; returns the latency, the L1 probe's included.

        Every caller probes L1 inline first (most lines hit there) and
        enters here only on a miss.  ``at`` is the cycle the request
        reaches the hierarchy (DRAM queueing is computed against it);
        -1 means "now".  This runs once per missing line and dominates
        wall-clock time, so every level's probe and fill and the DRAM
        channel reservation run inline against the structures'
        internals (DESIGN.md section 11); ``Cache.lookup``/``insert``
        and ``DRAM.access`` stay the object face for every other
        caller.  A line that missed a level is absent from it until
        this call fills it, so each fill is one ``appendleft``, which
        drops the set's least recently used line off its full deque.
        Each event is counted once, in ``stats`` (the L1 miss itself is
        implied: ``l1_misses`` sums the L2 outcomes).
        """
        stats = self.stats
        l1 = self.l1
        s1 = l1._sets[line_addr & l1._set_mask]
        l2 = self.l2
        s2 = l2._sets[line_addr & l2._set_mask]
        if line_addr in s2:
            s2.remove(line_addr)
            s2.appendleft(line_addr)
            stats.l2_hits += 1
            s1.appendleft(line_addr)
            return self._l2_hit_cycles
        l3 = self.l3
        cycles = self._l3_cycles
        s3 = l3._sets[line_addr & l3._set_mask]
        llc_hit = line_addr in s3
        if llc_hit:
            s3.remove(line_addr)
            s3.appendleft(line_addr)
            stats.l3_hits += 1
            if demand and line_addr in self._prefetched_lines:
                stats.prefetches_useful += 1
                self._prefetched_lines.discard(line_addr)
        else:
            stats.l3_misses += 1
            if at < 0:
                at = self.now
            # reserve the DRAM channel from the cycle the miss reaches it
            dram = self.dram
            issue = at + cycles
            start = dram._channel_free_at
            if start < issue:
                start = issue
            queued = start - issue
            service = dram.service
            dram._channel_free_at = start + service
            dram.accesses += 1
            dram.queue_cycles += queued
            dram.busy_cycles += service
            if queued > dram.max_queue_cycles:
                dram.max_queue_cycles = queued
            cycles += queued + dram.latency
            stats.dram_busy_cycles += service
            stats.dram_queue_cycles += queued
            if queued > stats.dram_max_queue_cycles:
                stats.dram_max_queue_cycles = queued
            if len(s3) == l3._ways:
                self._prefetched_lines.discard(s3[-1])
            s3.appendleft(line_addr)
        s2.appendleft(line_addr)
        s1.appendleft(line_addr)
        if demand and self._data_prefetch:
            if at < 0:
                at = self.now
            self._run_data_prefetchers(line_addr, was_miss=not llc_hit,
                                       at=at + cycles)
        return cycles

    def _insert_l3(self, line_addr: int) -> None:
        victim = self.l3.insert(line_addr)
        if victim is not None:
            self._prefetched_lines.discard(victim)

    def _run_data_prefetchers(self, line_addr: int, was_miss: bool,
                              at: int) -> None:
        candidates = []
        if self.stream_prefetcher is not None:
            candidates += self.stream_prefetcher.observe(line_addr, was_miss)
        if self.vldp_prefetcher is not None:
            candidates += self.vldp_prefetcher.observe(line_addr, was_miss)
        for pf_line in candidates:
            if self.l3.contains(pf_line):
                continue
            # prefetch occupies the DRAM channel from its issue time, but
            # its own latency is off the program's critical path
            queued_before = self.dram.queue_cycles
            self.dram.access(at)
            self.stats.prefetches_issued += 1
            self.stats.dram_busy_cycles += self.dram.service
            self.stats.dram_queue_cycles += (
                self.dram.queue_cycles - queued_before)
            self._insert_l3(pf_line)
            self._prefetched_lines.add(pf_line)

    def _pte_cache_access(self, paddr: int) -> int:
        """PTE loads issued by the page-table walker (cacheable).

        Most PTE loads hit L1 (upper-level entries are shared by every
        walk), so the L1 probe runs inline and only a miss enters
        ``_line_access``.
        """
        line = paddr >> _LINE_SHIFT
        l1 = self.l1
        s = l1._sets[line & l1._set_mask]
        if line in s:
            s.remove(line)
            s.appendleft(line)
            self.stats.l1_hits += 1
            return l1.latency
        return self._line_access(line)

    # ------------------------------------------------------------------
    # translation path
    # ------------------------------------------------------------------

    def _translate(self, vpn: int) -> "tuple[int, int, bool, bool]":
        """Translate a vpn that missed the D-TLB; returns (pfn, cycles,
        tlb_hit, walked), the D-TLB probe's latency included.

        Every caller probes the D-TLB inline first (most translations
        hit there) and enters here only on a miss, as ``_line_access``
        starts at the L1 miss; ``dtlb_misses`` sums the STLB outcomes.
        The STLB probe and the TLB fills run inline (see _line_access).
        Past an STLB miss the STB, then the accel backend or the page
        walker supply the pfn.  Accel backends tick the clock inside
        ``resolve``, so callers re-read ``now`` after this returns.
        """
        stats = self.stats
        dtlb = self.tlbs.l1
        s1 = dtlb._sets[vpn % dtlb._num_sets]
        stlb = self.tlbs.l2
        cycles = self._stlb_hit_cycles
        s2 = stlb._sets[vpn % stlb._num_sets]
        pfn = s2.pop(vpn, None)
        if pfn is not None:
            s2[vpn] = pfn
            stats.stlb_hits += 1
            if len(s1) >= dtlb._ways:
                del s1[next(iter(s1))]
            s1[vpn] = pfn
            if vpn in self._prefetched_vpns:
                stats.tlb_prefetches_useful += 1
                self._prefetched_vpns.discard(vpn)
            return pfn, cycles, True, False
        stats.stlb_misses += 1

        walked = False
        if self.stb is not None:
            cycles += self.stb_probe_cycles
            pfn = self.stb.probe(vpn)
            if pfn is not None:
                stats.stb_hits += 1
            else:
                stats.stb_misses += 1
        if pfn is None:
            if self.accel is not None:
                # the backend owns probe/walk/fill (and misspeculation):
                # returned cycles are the exposed translation latency;
                # its internal costs arrive via tick(attr="accel")
                pfn, accel_cycles, walked = self.accel.resolve(self, vpn)
                cycles += accel_cycles
            else:
                pfn, walk_cycles = self.walker.walk(vpn)
                cycles += walk_cycles
                stats.page_walks += 1
                stats.walk_cycles += walk_cycles
                walked = True
            if pfn is None:
                raise PageFault(vpn << PAGE_SHIFT)
        # fill both levels (TLBHierarchy.fill); the resolver contract
        # lets a backend fill them itself, so these keep the presence
        # check
        if vpn in s2:
            del s2[vpn]
        elif len(s2) >= stlb._ways:
            victim = next(iter(s2))
            del s2[victim]
            self._prefetched_vpns.discard(victim)
        s2[vpn] = pfn
        if vpn in s1:
            del s1[vpn]
        elif len(s1) >= dtlb._ways:
            del s1[next(iter(s1))]
        s1[vpn] = pfn
        if walked and self.tlb_prefetcher is not None:
            self._run_tlb_prefetcher(vpn)
        return pfn, cycles, False, walked

    def _run_tlb_prefetcher(self, vpn: int) -> None:
        if self.tlb_prefetcher is None:
            return
        for pf_vpn in self.tlb_prefetcher.observe_miss(vpn):
            if self.tlbs.l2.contains(pf_vpn):
                continue
            pf_pfn = self.space.page_table.lookup(pf_vpn)
            self.stats.tlb_prefetches_issued += 1
            if pf_pfn is not None:
                victim = self.tlbs.l2.insert(pf_vpn, pf_pfn)
                self._prefetched_vpns.discard(victim)
                self._prefetched_vpns.add(pf_vpn)

    # ------------------------------------------------------------------
    # public access API
    # ------------------------------------------------------------------

    def access(
        self,
        vaddr: int,
        size: int = 8,
        write: bool = False,
        kind: AccessKind = AccessKind.OTHER,
    ) -> AccessResult:
        """Perform one virtually addressed access of ``size`` bytes.

        The D-TLB and L1 hit cases run inline; misses go through
        ``_translate`` and ``_line_access``.  An access spanning several
        lines translates once per page it touches, then probes that
        page's lines.  ``now`` is re-read after every ``_translate``
        (accel backends tick inside ``resolve``).
        """
        if self.accel is not None:
            # op-site pseudo-PC for PC-indexed backends: the access kind
            # stands in for the instruction address of the issuing site
            self.accel.kind_hint = kind
        stats = self.stats
        if write:
            stats.writes += 1
        else:
            stats.reads += 1
        dtlb = self.tlbs.l1
        l1 = self.l1
        attr = self.attr
        first_line = vaddr >> _LINE_SHIFT
        last_line = (vaddr + max(size, 1) - 1) >> _LINE_SHIFT

        if first_line == last_line:
            # fast path: the overwhelmingly common single-line access
            vpn = vaddr >> PAGE_SHIFT
            s = dtlb._sets[vpn % dtlb._num_sets]
            pfn = s.pop(vpn, None)
            if pfn is not None:
                s[vpn] = pfn
                stats.dtlb_hits += 1
                t_cycles = dtlb.latency
                tlb_hit = True
                walked = False
            else:
                pfn, t_cycles, tlb_hit, walked = self._translate(vpn)
            line = ((pfn << PAGE_SHIFT) |
                    (vaddr & (PAGE_BYTES - 1))) >> _LINE_SHIFT
            s = l1._sets[line & l1._set_mask]
            if line in s:
                s.remove(line)
                s.appendleft(line)
                stats.l1_hits += 1
                cycles = t_cycles + l1.latency
            else:
                cycles = t_cycles + self._line_access(
                    line, True, self.now + t_cycles)
            self.now += cycles
            stats.total_cycles += cycles
            attr["translation"] = attr.get("translation", 0) + t_cycles
            name = kind._value_
            attr[name] = attr.get(name, 0) + cycles - t_cycles
            return AccessResult(cycles, tlb_hit,
                                not tlb_hit and not walked, walked, 1)

        cycles = 0
        translation_cycles = 0
        tlb_hit = True
        stb_hit = False
        walked = False
        line = first_line
        while line <= last_line:
            # one translation per page touched, then that page's lines
            vpn = line >> _PAGE_LINE_SHIFT
            s = dtlb._sets[vpn % dtlb._num_sets]
            pfn = s.pop(vpn, None)
            if pfn is not None:
                s[vpn] = pfn
                stats.dtlb_hits += 1
                t_cycles = dtlb.latency
            else:
                pfn, t_cycles, t_hit, t_walked = self._translate(vpn)
                tlb_hit = tlb_hit and t_hit
                walked = walked or t_walked
                if not t_hit and not t_walked:
                    stb_hit = True
            cycles += t_cycles
            translation_cycles += t_cycles
            page_end = (vpn << _PAGE_LINE_SHIFT) | _PAGE_LINE_MASK
            if page_end > last_line:
                page_end = last_line
            first = (pfn << _PAGE_LINE_SHIFT) | (line & _PAGE_LINE_MASK)
            for paddr_line in range(first, first + page_end - line + 1):
                s = l1._sets[paddr_line & l1._set_mask]
                if paddr_line in s:
                    s.remove(paddr_line)
                    s.appendleft(paddr_line)
                    stats.l1_hits += 1
                    cycles += l1.latency
                else:
                    cycles += self._line_access(paddr_line, True,
                                                self.now + cycles)
            line = page_end + 1

        self.now += cycles
        stats.total_cycles += cycles
        attr["translation"] = attr.get("translation", 0) + translation_cycles
        name = kind._value_
        attr[name] = attr.get(name, 0) + cycles - translation_cycles
        return AccessResult(cycles, tlb_hit, stb_hit, walked,
                            last_line - first_line + 1)

    def physical_access(self, paddr: int, size: int = 8) -> int:
        """Physically addressed access (STU traffic to STLT rows).

        Skips the TLBs — the STU computes the row's physical address from
        CR_S directly — but goes through the shared data caches.  Returns
        the latency in cycles and advances the clock.  Each line's L1
        probe runs inline, as in :meth:`access`.
        """
        stats = self.stats
        stats.reads += 1
        l1 = self.l1
        cycles = 0
        first_line = paddr >> _LINE_SHIFT
        last_line = (paddr + max(size, 1) - 1) >> _LINE_SHIFT
        for line in range(first_line, last_line + 1):
            s = l1._sets[line & l1._set_mask]
            if line in s:
                s.remove(line)
                s.appendleft(line)
                stats.l1_hits += 1
                cycles += l1.latency
            else:
                cycles += self._line_access(line, True, self.now + cycles)
        self.now += cycles
        stats.total_cycles += cycles
        self.attr["stlt"] = self.attr.get("stlt", 0) + cycles
        return cycles

    def tlb_flush(self) -> None:
        self.tlbs.flush()
        self._prefetched_vpns.clear()

    def attach_stb(self, stb) -> None:
        """Attach a system translation buffer to the TLB-miss path."""
        self.stb = stb

    def detach_stb(self) -> None:
        self.stb = None

    def attach_accel(self, accel) -> None:
        """Attach a translation-accelerator resolver (repro.accel) to
        the L2-TLB-miss path; it then owns probe/walk/fill."""
        self.accel = accel
