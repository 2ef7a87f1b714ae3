"""repro.exp — parallel experiment orchestration.

Every figure and table of the paper is a *sweep* of full trace-driven
simulations.  This package is the campaign runner for those sweeps:

* :mod:`repro.exp.spec`      — declarative sweep specs (grids, zips,
  named campaigns) that expand into labelled ``RunConfig`` lists;
* :mod:`repro.exp.store`     — a durable JSONL result store keyed by a
  content hash over *all* config fields;
* :mod:`repro.exp.runner`    — a fault-tolerant ``ProcessPoolExecutor``
  runner with per-run timeouts, bounded retry, crash isolation, and
  deterministic (serial-identical) output;
* :mod:`repro.exp.progress`  — tick-based status lines, ETA, summary;
* :mod:`repro.exp.reporting` — stored records -> paper-vs-measured
  ``format_table`` output.

Typical use::

    from repro.exp import ResultStore, SweepRunner, SweepSpec

    spec = SweepSpec(name="demo",
                     base=dict(num_keys=20_000, measure_ops=4_000),
                     grid={"program": ["redis", "btree"],
                           "frontend": ["baseline", "stlt"]})
    store = ResultStore("results.jsonl")
    report = SweepRunner(store=store, jobs=4).run(spec.expand())
    print(report.summary())
"""

from .progress import NullProgress, ProgressReporter
from .reporting import (
    accel_table,
    churn_table,
    cluster_table,
    failover_table,
    hetero_table,
    latency_table,
    scaling_table,
    speedup_table,
    summary_table,
    sweep_summary,
)
from .runner import (
    STATUS_CACHED,
    STATUS_COMPLETED,
    STATUS_FAILED,
    RunOutcome,
    RunTimeout,
    SweepReport,
    SweepRunner,
)
from .spec import (
    SweepPoint,
    SweepSpec,
    builtin_sweeps,
    get_sweep,
    points_from_configs,
    size_sweep_points,
    sweep_descriptions,
)
from .store import ResultStore, make_record

__all__ = [
    "NullProgress",
    "ProgressReporter",
    "ResultStore",
    "RunOutcome",
    "RunTimeout",
    "STATUS_CACHED",
    "STATUS_COMPLETED",
    "STATUS_FAILED",
    "SweepPoint",
    "SweepReport",
    "SweepRunner",
    "SweepSpec",
    "builtin_sweeps",
    "churn_table",
    "cluster_table",
    "failover_table",
    "get_sweep",
    "hetero_table",
    "latency_table",
    "make_record",
    "points_from_configs",
    "size_sweep_points",
    "scaling_table",
    "speedup_table",
    "summary_table",
    "sweep_descriptions",
    "sweep_summary",
]
