"""Victima-style TLB-reach extension (PAPERS.md: *Victima*).

Victima parks translations in *underutilized L2/L3 cache capacity*
instead of adding a dedicated SRAM: on an L2-TLB miss the cache
hierarchy is probed for a "TLB block"; on a page-walk completion the
walked translation is placed into the cache (PTW-fill placement),
evicting a data line if the set is full.

The model here keeps the design's timing shape without re-plumbing the
data caches themselves:

* the parked-translation store is a set-associative table of
  ``RunConfig.effective_accel_rows`` sets x ``ACCEL_WAYS`` ways
  (capacity borrowed from L2/L3, so its *hardware* cost is per-line
  metadata only — see :func:`repro.core.hwcost.victima_cost`);
* a probe costs L2 latency (the translations live in the cache, not in
  a near-core SRAM);
* a PTW fill charges one L2-latency placement and counts an eviction
  when it displaces a parked line (the cost model for the data line it
  would push out);
* OS page invalidations reach the store through the same
  ``flush_tlb_*`` hook that scrubs the TLBs and the STB, so a parked
  translation is never stale (correctness backstopped by the oracle).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..core.hwcost import ACCEL_WAYS, HardwareCostReport, victima_cost
from .base import SetAssocTable, TranslationAccel, charged_walk

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.frontend import LookupFrontend


class _VictimaResolver:
    """Per-core resolver attached to the L2-TLB-miss slot."""

    def __init__(self, num_sets: int, ways: int, probe_cycles: int,
                 fill_cycles: int) -> None:
        self.table = SetAssocTable(num_sets, ways)
        self.probe_cycles = probe_cycles
        self.fill_cycles = fill_cycles
        self.kind_hint = None  # unused; PC-indexed designs read this
        self.probes = 0
        self.hits = 0
        self.fills = 0

    def resolve(self, mem, vpn: int):
        # probing the cache hierarchy for a TLB block costs L2 latency
        # whether it hits or not; charged to the per-design category
        mem.tick(self.probe_cycles, attr="accel")
        self.probes += 1
        pfn = self.table.probe(vpn)
        if pfn is not None:
            self.hits += 1
            return pfn, 0, False
        pfn, walk_cycles = charged_walk(mem, vpn)
        if pfn is None:
            return None, walk_cycles, True
        # PTW-fill placement: stage the walked translation into the
        # cache (possibly displacing a data line — counted as eviction)
        mem.tick(self.fill_cycles, attr="accel")
        self.fills += 1
        self.table.insert(vpn, pfn)
        return pfn, walk_cycles, True

    def invalidate(self, vpn: int) -> None:
        self.table.invalidate(vpn)


class VictimaAccel(TranslationAccel):
    """The Victima design point: L2/L3 capacity as TLB reach."""

    name = "victima"

    def __init__(self, engine) -> None:
        super().__init__(engine)
        self.resolvers: List[_VictimaResolver] = []

    def build_frontends(self) -> "List[LookupFrontend]":
        from ..sim.frontend import make_frontend  # avoid an import cycle
        config = self.config
        ctx = self.engine.ctx
        l2_latency = config.machine.l2.latency
        frontends = []
        for core in ctx.cores:
            resolver = _VictimaResolver(
                config.effective_accel_rows, ACCEL_WAYS,
                probe_cycles=l2_latency, fill_cycles=l2_latency)
            core.mem.attach_accel(resolver)
            self.resolvers.append(resolver)
            frontends.append(
                make_frontend("baseline", ctx, self.engine.index))
        return frontends

    def report(self) -> dict:
        return {
            "accel": self.name,
            "probes": sum(r.probes for r in self.resolvers),
            "hits": sum(r.hits for r in self.resolvers),
            "fills": sum(r.fills for r in self.resolvers),
            "evictions": sum(r.table.evictions for r in self.resolvers),
            "occupancy": sum(r.table.occupancy for r in self.resolvers),
        }

    def hardware_cost(self) -> HardwareCostReport:
        machine = self.config.machine
        return victima_cost(
            l2_lines=machine.l2.num_lines,
            l3_lines=machine.l3.num_lines,
        )
