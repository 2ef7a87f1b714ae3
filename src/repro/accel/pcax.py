"""PCAX-style PC-indexed address translation (PAPERS.md: *PCAX*).

PCAX observes that the *instruction* issuing a load is a strong
predictor of which translation it needs: a dedicated table indexed by
the load's PC caches the translations that PC used recently, probed on
the L2-TLB-miss path and trained at page-walk completion.

The trace-driven simulator has no real program counters, so the
backend derives **op-site pseudo-PCs** from the engine's access kinds
(:class:`repro.mem.types.AccessKind`): every index traversal, record
probe, value read, PTE load, etc. is one static load site — exactly
the granularity PCAX keys on.  Each pseudo-PC owns a small
set-associative (vpn -> pfn) partition of
``RunConfig.effective_accel_rows`` sets x ``ACCEL_WAYS`` ways, so hot
sites with small page working sets (upper index levels) hit, while
sites that sweep the whole footprint (value reads under a uniform
distribution) thrash — the design's characteristic behaviour.

Probes cost a small near-core SRAM latency (``PROBE_CYCLES``, 2
cycles) and invalidations reach every per-PC partition through the
same OS ``flush_tlb_*`` hook as the TLBs, so entries are never stale.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from ..core.hwcost import ACCEL_WAYS, HardwareCostReport, pcax_cost
from ..mem.types import AccessKind
from .base import SetAssocTable, TranslationAccel, charged_walk

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.frontend import LookupFrontend

#: probe latency of the dedicated PC-indexed SRAM
PROBE_CYCLES = 2


class _PCAXResolver:
    """Per-core resolver: one table partition per op-site pseudo-PC."""

    def __init__(self, num_sets: int, ways: int,
                 probe_cycles: int) -> None:
        self.num_sets = num_sets
        self.ways = ways
        self.probe_cycles = probe_cycles
        #: the op-site pseudo-PC of the in-flight access, written by
        #: MemorySystem.access before translation starts
        self.kind_hint = AccessKind.OTHER
        self._tables: Dict[str, SetAssocTable] = {}
        self.probes = 0
        self.hits = 0
        self.fills = 0

    def _table(self) -> SetAssocTable:
        pc = self.kind_hint.value
        table = self._tables.get(pc)
        if table is None:
            table = SetAssocTable(self.num_sets, self.ways)
            self._tables[pc] = table
        return table

    def resolve(self, mem, vpn: int):
        mem.tick(self.probe_cycles, attr="accel")
        self.probes += 1
        table = self._table()
        pfn = table.probe(vpn)
        if pfn is not None:
            self.hits += 1
            return pfn, 0, False
        pfn, walk_cycles = charged_walk(mem, vpn)
        if pfn is None:
            return None, walk_cycles, True
        # train the issuing op site's partition with the walked entry
        self.fills += 1
        table.insert(vpn, pfn)
        return pfn, walk_cycles, True

    def invalidate(self, vpn: int) -> None:
        for table in self._tables.values():
            table.invalidate(vpn)

    @property
    def evictions(self) -> int:
        return sum(t.evictions for t in self._tables.values())

    @property
    def occupancy(self) -> int:
        return sum(t.occupancy for t in self._tables.values())


class PCAXAccel(TranslationAccel):
    """The PCAX design point: PC-indexed translation prediction."""

    name = "pcax"

    def __init__(self, engine) -> None:
        super().__init__(engine)
        self.resolvers: List[_PCAXResolver] = []

    def build_frontends(self) -> "List[LookupFrontend]":
        from ..sim.frontend import make_frontend  # avoid an import cycle
        config = self.config
        ctx = self.ctx
        frontends = []
        for core in ctx.cores:
            resolver = _PCAXResolver(
                config.effective_accel_rows, ACCEL_WAYS,
                probe_cycles=PROBE_CYCLES)
            core.mem.attach_accel(resolver)
            self.resolvers.append(resolver)
            frontends.append(
                make_frontend("baseline", ctx, self.index))
        return frontends

    def report(self) -> dict:
        return {
            "accel": self.name,
            "probes": sum(r.probes for r in self.resolvers),
            "hits": sum(r.hits for r in self.resolvers),
            "fills": sum(r.fills for r in self.resolvers),
            "evictions": sum(r.evictions for r in self.resolvers),
            "occupancy": sum(r.occupancy for r in self.resolvers),
            "op_sites": max((len(r._tables) for r in self.resolvers),
                            default=0),
        }

    def hardware_cost(self) -> HardwareCostReport:
        return pcax_cost(self.config.effective_accel_rows)
