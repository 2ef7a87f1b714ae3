"""Run results and the derived metrics the paper reports.

A :class:`RunResult` carries the measured-window statistics of one run.
Speedups are ratios of cycles per operation against a baseline run, and
"reductions" (TLB misses, cache misses) are relative count decreases —
the metrics of Figs. 11-19.

Multi-core runs produce one per-core :class:`RunResult` (``core_id``
set) plus an aggregate built by :func:`aggregate_run_results`: memory
counters sum via :func:`repro.mem.stats.sum_stats`, the aggregate
``cycles`` is the wall clock of the interleaved epoch (the slowest
core), ``ops`` is the total across cores, and the per-core payloads ride
along in ``cores`` so throughput (ops/cycle) and Jain fairness are
derivable from one stored record.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional, Sequence

from ..errors import ReproError
from ..mem.stats import MemoryStats, sum_stats


@dataclass
class RunResult:
    """Measured-window outcome of one simulated run."""

    label: str
    frontend: str
    cycles: int
    ops: int
    gets: int
    sets: int
    mem: MemoryStats
    #: cycle attribution by category over the measured window
    attr: Dict[str, int] = field(default_factory=dict)
    #: fast-path table miss rate (STLT or SLB), None for baseline
    fast_miss_rate: Optional[float] = None
    #: occupancy of the fast-path table at the end of the run
    fast_occupancy: Optional[int] = None
    #: bytes of the fast-path table(s)
    fast_table_bytes: Optional[int] = None
    #: which core measured this result (None: single-core or aggregate)
    core_id: Optional[int] = None
    #: aggregate results only: the per-core result dicts
    cores: Optional[List[dict]] = None
    #: open-loop runs only: the service-layer outcome
    #: (:class:`repro.svc.service.ServiceResult` as a plain dict —
    #: latency percentiles, offered vs achieved throughput, per-core
    #: queue statistics, and the full latency histogram)
    service: Optional[dict] = None
    #: chaos runs only: churn/fault telemetry and the oracle verdict
    #: (:func:`repro.chaos.report.build_chaos_report` — injector event
    #: counters, IPB/scrub statistics, zero-violation oracle verdict)
    chaos: Optional[dict] = None
    #: rival-design runs only (``frontend`` victima, pcax or
    #: revelator): the backend's telemetry
    #: (:meth:`repro.accel.base.TranslationAccel.report` —
    #: probe/hit/fill/eviction counters, speculation verdict counts)
    accel: Optional[dict] = None
    #: cluster runs only: the fleet-level outcome
    #: (:class:`repro.cluster.service.ClusterResult` as a plain dict —
    #: merged latency percentiles/histogram, per-node fairness, route
    #: cache and redirect telemetry, migration and network reports).
    #: For multi-node runs the top-level counters are the cross-node
    #: aggregate and ``cores`` holds the per-*node* result dicts.
    cluster: Optional[dict] = None

    @property
    def cycles_per_op(self) -> float:
        return self.cycles / self.ops if self.ops else 0.0

    @property
    def throughput(self) -> float:
        """Operations per cycle; for aggregates, total ops over the
        wall clock of the slowest core — the scaling metric."""
        return self.ops / self.cycles if self.cycles else 0.0

    @property
    def num_cores(self) -> int:
        return len(self.cores) if self.cores else 1

    @property
    def fairness(self) -> Optional[float]:
        """Jain's fairness index over per-core throughput (1.0 = all
        cores made equal progress); None for single-core results."""
        if not self.cores:
            return None
        rates = [c["ops"] / c["cycles"] for c in self.cores if c["cycles"]]
        if not rates:
            return None
        total = sum(rates)
        square_sum = sum(r * r for r in rates)
        if not square_sum:
            return None
        return (total * total) / (len(rates) * square_sum)

    def per_core_results(self) -> List["RunResult"]:
        """Re-hydrate the per-core results of an aggregate (or [self])."""
        if not self.cores:
            return [self]
        return [RunResult.from_dict(c) for c in self.cores]

    def service_result(self):
        """Re-hydrate the open-loop service outcome, or ``None``."""
        if self.service is None:
            return None
        from ..svc.service import ServiceResult  # avoid an import cycle
        return ServiceResult.from_dict(self.service)

    @property
    def tlb_misses(self) -> int:
        return self.mem.stlb_misses

    @property
    def cache_misses(self) -> int:
        return self.mem.l1_misses

    @property
    def page_walks(self) -> int:
        return self.mem.page_walks

    def attr_share(self, *categories: str) -> float:
        """Fraction of measured cycles attributed to ``categories``."""
        if not self.cycles:
            return 0.0
        return sum(self.attr.get(c, 0) for c in categories) / self.cycles

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        """All fields as plain JSON-serialisable data (exact round trip).

        The memory-statistics bundle nests as its ``to_dict()``; every
        other field is already a scalar, dict, or ``None``.  Consumed by
        the durable result store (``repro.exp.store``) and the ``--json``
        CLI output.
        """
        return dict(asdict(self), mem=self.mem.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        """Inverse of :meth:`to_dict`; rejects unknown keys loudly."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ReproError(
                f"unknown RunResult field(s): {sorted(unknown)!r}")
        kwargs = dict(data)
        if isinstance(kwargs.get("mem"), dict):
            kwargs["mem"] = MemoryStats.from_dict(kwargs["mem"])
        return cls(**kwargs)


def aggregate_run_results(per_core: Sequence[RunResult],
                          label: str, frontend: str) -> RunResult:
    """Fold per-core measured windows into one aggregate result.

    * ``cycles`` — the wall clock of the interleaved epoch: the slowest
      core's measured cycles (cores run concurrently, so their cycle
      counts overlap rather than add);
    * ``ops``/``gets``/``sets`` — totals across cores (throughput is
      therefore ``ops / cycles``, ops per wall-clock cycle);
    * ``mem`` — :func:`~repro.mem.stats.sum_stats` of the per-core
      bundles (counters add, gauges take the max);
    * ``attr`` — per-category cycle attribution summed across cores;
    * ``fast_miss_rate`` — hit-weighted across cores (the shared table's
      global miss rate, not the mean of per-core rates);
    * ``cores`` — the per-core result dicts, so per-core shared-STLT hit
      rates and fairness survive serialisation.
    """
    if not per_core:
        raise ReproError("cannot aggregate zero per-core results")
    attr: Dict[str, int] = {}
    for result in per_core:
        for category, cycles in result.attr.items():
            attr[category] = attr.get(category, 0) + cycles
    total_gets = sum(r.gets for r in per_core)
    fast_miss_rate = None
    rates = [(r.fast_miss_rate, r.gets) for r in per_core
             if r.fast_miss_rate is not None]
    if rates and total_gets:
        missed = sum(rate * gets for rate, gets in rates)
        fast_miss_rate = missed / total_gets
    return RunResult(
        label=label,
        frontend=frontend,
        cycles=max(r.cycles for r in per_core),
        ops=sum(r.ops for r in per_core),
        gets=total_gets,
        sets=sum(r.sets for r in per_core),
        mem=sum_stats(r.mem for r in per_core),
        attr=attr,
        fast_miss_rate=fast_miss_rate,
        fast_occupancy=per_core[0].fast_occupancy,
        fast_table_bytes=per_core[0].fast_table_bytes,
        cores=[r.to_dict() for r in per_core],
    )


def speedup(baseline: RunResult, other: RunResult) -> float:
    """How much faster ``other`` runs than ``baseline`` (>1 = faster)."""
    if other.cycles_per_op == 0:
        return float("inf")
    return baseline.cycles_per_op / other.cycles_per_op


def reduction(baseline_count: int, other_count: int) -> float:
    """Relative decrease of an event count (negative = increase)."""
    if baseline_count == 0:
        return 0.0
    return (baseline_count - other_count) / baseline_count


def geomean(values: Sequence[float]) -> float:
    """Geometric mean, the conventional average for speedups."""
    if not values:
        return 0.0
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))


def format_table(headers: List[str], rows: List[List[str]]) -> str:
    """Render a fixed-width ASCII table (benchmark output helper)."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)
