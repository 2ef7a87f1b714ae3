"""Statistic bundles for the memory hierarchy.

Each core's :class:`MemoryStats` is the one record of its memory
events: the miss path increments one field per event, and the caches
and TLBs keep no counters.  Counts that other fields imply
(``accesses``, ``dtlb_misses``, ``l1_misses``, ``l2_misses``,
``dram_accesses``) are read-only properties, which
:meth:`MemoryStats.to_dict` emits and :meth:`MemoryStats.from_dict`
checks.  The :meth:`MemoryStats.snapshot` / :meth:`MemoryStats.delta`
pair supports the paper's methodology of warming up on 80% of the
accesses and measuring only the remainder.

With the private/shared split of the hierarchy (one ``MemoryStats`` per
core over shared L3/DRAM), per-core bundles aggregate with
:func:`sum_stats`: counters add, gauge fields (currently only
``dram_max_queue_cycles``) take the maximum.  ``sum_stats`` of per-core
deltas equals the delta of ``sum_stats`` for every counter field — the
aggregation property the multi-core engine relies on (and a property
test enforces).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Iterable

from ..errors import ReproError

#: fields that are high-water marks, not event counters: they aggregate
#: with ``max`` and their window delta is the current (run-lifetime)
#: value — a high-water mark set during warm-up is still the worst delay
#: any request of the run observed, so the measured window reports it
GAUGE_MAX_FIELDS = frozenset({"dram_max_queue_cycles"})

#: the counts other fields imply (read-only properties below)
DERIVED_FIELDS = ("accesses", "dtlb_misses", "l1_misses", "l2_misses",
                  "dram_accesses")


@dataclass
class MemoryStats:
    """Counters for one :class:`~repro.mem.hierarchy.MemorySystem`."""

    reads: int = 0
    writes: int = 0

    dtlb_hits: int = 0
    stlb_hits: int = 0
    stlb_misses: int = 0
    stb_hits: int = 0
    stb_misses: int = 0
    page_walks: int = 0
    walk_cycles: int = 0

    l1_hits: int = 0
    l2_hits: int = 0
    l3_hits: int = 0
    l3_misses: int = 0

    dram_queue_cycles: int = 0
    #: cycles the (shared) DRAM channel spent servicing this core's
    #: transfers; ``dram_busy_fraction`` derives channel pressure from it
    dram_busy_cycles: int = 0
    #: worst queueing delay a single request of this core observed (gauge)
    dram_max_queue_cycles: int = 0

    prefetches_issued: int = 0
    prefetches_useful: int = 0
    tlb_prefetches_issued: int = 0
    tlb_prefetches_useful: int = 0

    total_cycles: int = 0

    def snapshot(self) -> "MemoryStats":
        """Return an independent copy of the current counters."""
        return MemoryStats(
            **{f.name: getattr(self, f.name) for f in fields(MemoryStats)}
        )

    def delta(self, since: "MemoryStats") -> "MemoryStats":
        """Return counters accumulated since ``since`` was snapshotted.

        Counter fields subtract.  Gauge fields carry the current
        (run-lifetime) high-water mark through unchanged: a maximum is
        not differentiable, and the worst delay of the whole run is the
        honest answer to "how bad did queueing get".
        """
        out = {}
        for f in fields(MemoryStats):
            cur = getattr(self, f.name)
            prev = getattr(since, f.name)
            if f.name in GAUGE_MAX_FIELDS:
                out[f.name] = cur
            else:
                out[f.name] = cur - prev
        return MemoryStats(**out)

    def to_dict(self) -> dict:
        """Every field plus the derived counts, as plain data."""
        return dict(asdict(self),
                    **{name: getattr(self, name) for name in DERIVED_FIELDS})

    @classmethod
    def from_dict(cls, data: dict) -> "MemoryStats":
        """Inverse of :meth:`to_dict`; a derived count may be absent,
        and one that disagrees with its parts raises ReproError."""
        stats = cls(**{k: v for k, v in data.items()
                       if k not in DERIVED_FIELDS})
        for name in DERIVED_FIELDS:
            if data.get(name, getattr(stats, name)) != getattr(stats, name):
                raise ReproError(f"stored {name} {data[name]} disagrees "
                                 f"with its parts ({getattr(stats, name)})")
        return stats

    # -- derived counts and ratios -------------------------------------

    @property
    def accesses(self) -> int:
        """Every access; ``physical_access`` counts as a read."""
        return self.reads + self.writes

    @property
    def dtlb_misses(self) -> int:
        return self.stlb_hits + self.stlb_misses

    @property
    def l1_misses(self) -> int:
        return self.l2_hits + self.l2_misses

    @property
    def l2_misses(self) -> int:
        return self.l3_hits + self.l3_misses

    @property
    def dram_accesses(self) -> int:
        """Demand transfers (``DRAM``'s own counters add prefetches)."""
        return self.l3_misses

    @property
    def tlb_misses(self) -> int:
        """Misses that had to leave the TLB hierarchy (L2 TLB misses)."""
        return self.stlb_misses

    @property
    def tlb_miss_rate(self) -> float:
        return self.stlb_misses / self.accesses if self.accesses else 0.0

    @property
    def l1_miss_rate(self) -> float:
        total = self.l1_hits + self.l1_misses
        return self.l1_misses / total if total else 0.0

    @property
    def llc_miss_rate(self) -> float:
        total = self.l3_hits + self.l3_misses
        return self.l3_misses / total if total else 0.0

    @property
    def cache_misses(self) -> int:
        """Combined data-cache misses (the paper's 'cache misses')."""
        return self.l1_misses

    @property
    def prefetch_accuracy(self) -> float:
        if not self.prefetches_issued:
            return 0.0
        return self.prefetches_useful / self.prefetches_issued

    @property
    def dram_busy_fraction(self) -> float:
        """Fraction of elapsed cycles the DRAM channel was transferring
        lines on this core's behalf (aggregate bundles: on any core's)."""
        if not self.total_cycles:
            return 0.0
        return self.dram_busy_cycles / self.total_cycles

    def merge(self, other: "MemoryStats") -> None:
        """Accumulate ``other`` into this bundle in place.

        Counter fields add; gauge fields keep the maximum.  This is the
        in-place form of :func:`sum_stats`.
        """
        for f in fields(MemoryStats):
            mine = getattr(self, f.name)
            theirs = getattr(other, f.name)
            if f.name in GAUGE_MAX_FIELDS:
                setattr(self, f.name, mine if mine >= theirs else theirs)
            else:
                setattr(self, f.name, mine + theirs)


def sum_stats(bundles: Iterable[MemoryStats]) -> MemoryStats:
    """Aggregate many per-core bundles into one.

    Counter fields add across cores; gauge fields take the maximum (the
    worst queueing delay of the aggregate is the worst any core saw).
    ``sum_stats([])`` is the zero bundle, the identity of :meth:`merge`.
    """
    total = MemoryStats()
    for bundle in bundles:
        total.merge(bundle)
    return total
