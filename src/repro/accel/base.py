"""The ``TranslationAccel`` interface (DESIGN.md section 12).

A translation accelerator is one rival *design point* in the
head-to-head: a hardware/software mechanism that shortens the path
from a virtual address to data under the exact same memory system,
OS-churn paths, and stale-translation oracle as the paper's STLT.  Its
``name`` is its ``RunConfig.frontend`` value; ``Engine._build_frontends``
hands every frontend it does not build itself to
:func:`repro.accel.make_accel`.  A backend plugs into the simulator at
two seams:

* **front-ends** — :meth:`TranslationAccel.build_frontends` returns one
  :class:`~repro.sim.frontend.LookupFrontend` per core: plain baseline
  front-ends, because the design does its work below the TLBs.
* **the L2-TLB-miss slot** — a backend may attach one resolver per
  core via :meth:`repro.mem.hierarchy.MemorySystem.attach_accel`.  The
  resolver owns the probe/walk/fill protocol for that core and is
  called exactly where the reference system would start a page walk.

The resolver contract (duck-typed, see ``MemorySystem._translate``)::

    resolve(mem, vpn) -> (pfn | None, exposed_cycles, walked)
    invalidate(vpn)          # OS flush_tlb_* reaches the backend here
    kind_hint                # writable; the op-site pseudo-PC

``exposed_cycles`` join the access's critical path and are attributed
to "translation"; everything the design charges *itself* (probes,
validation, misspeculation penalties, fill traffic) goes through
``mem.tick(cycles, attr="accel")`` so ``sim/breakdown.py`` reports a
per-design "accel" category.  A resolver must never return a pfn the
page table would not — speculative designs fetch in parallel and
*validate*; the always-on CoherenceError oracle is the backstop.

Scrubbing (the STLT's IPB-overflow slow path) is design-private: the
STLT front-ends inherit it through :class:`repro.core.os_interface`,
the rivals invalidate eagerly per page, and Revelator deliberately
keeps stale predictions (staleness is a charged misspeculation, never
a correctness event).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from ..core.hwcost import HardwareCostReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.engine import Engine
    from ..sim.frontend import LookupFrontend


class TranslationAccel:
    """One pluggable translation-acceleration design."""

    #: the design's ``RunConfig.frontend`` value (set by subclasses)
    name: str = "none"

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.config = engine.config

    # -- construction ---------------------------------------------------

    def build_frontends(self) -> "List[LookupFrontend]":
        """Build per-core front-ends and attach any per-core resolvers.

        Called from ``Engine._build_frontends`` for the design's
        frontend value.
        """
        raise NotImplementedError

    # -- reporting ------------------------------------------------------

    def report(self) -> dict:
        """Backend telemetry for ``RunResult.accel`` (plain JSON data)."""
        return {"accel": self.name}

    def hardware_cost(self) -> HardwareCostReport:
        """Table-1-style on-chip bit budget of this design."""
        raise NotImplementedError


class SetAssocTable:
    """A small LRU set-associative (vpn -> pfn) table.

    The shared building block of the victima and pcax resolvers; the
    same plain-dict LRU idiom as :class:`repro.mem.tlb.TLB` (a hit
    re-inserts the vpn, the victim is the first key), kept separate
    because these tables are backend state, not part of the TLB
    hierarchy (they must not count TLB statistics).
    """

    def __init__(self, num_sets: int, ways: int) -> None:
        self.num_sets = num_sets
        self.ways = ways
        self._sets: List[Dict[int, int]] = [{} for _ in range(num_sets)]
        self.evictions = 0

    def probe(self, vpn: int) -> Optional[int]:
        s = self._sets[vpn % self.num_sets]
        pfn = s.pop(vpn, None)
        if pfn is not None:
            s[vpn] = pfn
        return pfn

    def insert(self, vpn: int, pfn: int) -> bool:
        """Insert; returns True when a victim was evicted."""
        s = self._sets[vpn % self.num_sets]
        evicted = False
        if vpn in s:
            del s[vpn]
        elif len(s) >= self.ways:
            del s[next(iter(s))]
            self.evictions += 1
            evicted = True
        s[vpn] = pfn
        return evicted

    def invalidate(self, vpn: int) -> None:
        self._sets[vpn % self.num_sets].pop(vpn, None)

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)


def charged_walk(mem, vpn: int):
    """One hardware page walk with reference-identical accounting.

    Returns ``(pfn | None, walk_cycles)``; the caller decides how much
    of the latency is *exposed* (Revelator hides it behind the
    speculative data fetch) — the walker's PTE loads and the walk-count
    statistics happen either way, exactly as in the reference path.
    """
    pfn, walk_cycles = mem.walker.walk(vpn)
    mem.stats.page_walks += 1
    mem.stats.walk_cycles += walk_cycles
    return pfn, walk_cycles
