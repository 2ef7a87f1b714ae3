"""Shared infrastructure for the benchmark harness.

Every module in this directory regenerates one table or figure of the
paper.  Runs are expensive (each is a full trace-driven simulation), so
they are submitted through :mod:`repro.exp`:

* results live in a durable ``.bench_results.jsonl`` store keyed by a
  content hash over *all* ``RunConfig`` fields (machine model included
  — the old hand-rolled key tuple silently omitted it, so a machine
  change could hit stale entries);
* figures that share runs (the Fig. 14/15/16 size sweep, Fig. 11 vs
  Table V) reuse them through that one store;
* each figure submits its whole sweep as one batch through
  :func:`run_keyed` / :func:`run_many`, which fan it out over worker
  processes (parallel results are bit-identical to serial).

Scale and execution knobs (environment variables):

  - ``REPRO_BENCH_KEYS``  (default 50000)  — keys per store
  - ``REPRO_BENCH_OPS``   (default 6000)   — measured operations
  - ``REPRO_BENCH_JOBS``  (default min(4, cpus)) — sweep workers
  - ``REPRO_BENCH_FRESH`` (set to 1)       — re-simulate everything

Each benchmark prints a paper-vs-measured table; the *shape* (who wins,
rough factors, orderings) is the reproduction target, per EXPERIMENTS.md.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Hashable, List, Optional, Sequence

from repro.exp import ResultStore, SweepRunner, points_from_configs
from repro.sim.config import RunConfig
from repro.sim.results import RunResult, format_table

BENCH_KEYS = int(os.environ.get("REPRO_BENCH_KEYS", "50000"))
BENCH_OPS = int(os.environ.get("REPRO_BENCH_OPS", "6000"))
BENCH_JOBS = int(os.environ.get(
    "REPRO_BENCH_JOBS", str(min(4, os.cpu_count() or 1))))

_STORE_PATH = Path(__file__).resolve().parent.parent / ".bench_results.jsonl"
_store: Optional[ResultStore] = None


def _fresh() -> bool:
    return bool(os.environ.get("REPRO_BENCH_FRESH"))


def bench_store() -> ResultStore:
    """The shared durable result store for all benchmark figures.

    Under ``REPRO_BENCH_FRESH`` the store is wiped once per process, so
    everything re-simulates but figures that share runs (the size
    sweep) still reuse the fresh results within the session.
    """
    global _store
    if _store is None:
        _store = ResultStore(_STORE_PATH)
        if _fresh():
            _store.clear()
    return _store


def _runner(jobs: int) -> SweepRunner:
    return SweepRunner(store=bench_store(), jobs=jobs, retries=1)


def run_many(configs: Sequence[RunConfig]) -> List[RunResult]:
    """Run (or fetch) a batch of configs in parallel; their results.

    Results come back in ``configs`` order regardless of completion
    order, duplicate configs are simulated once, and a failing run
    raises (a benchmark must never chart a partial sweep).
    """
    jobs = max(1, min(BENCH_JOBS, len(configs)))
    report = _runner(jobs).run(points_from_configs(list(configs)))
    if not report.ok:
        details = "; ".join(
            f"{o.label}: {o.error}" for o in report.failed)
        raise RuntimeError(f"benchmark sweep failed: {details}")
    return [o.result for o in report]


def run_keyed(
        configs: Dict[Hashable, RunConfig]) -> Dict[Hashable, RunResult]:
    """Run a sweep's configs as one :func:`run_many` batch; each result
    comes back under its config's key, in the same order."""
    return dict(zip(configs, run_many(list(configs.values()))))


def bench_config(**overrides) -> RunConfig:
    """A RunConfig at benchmark scale, overridable per experiment."""
    defaults = dict(num_keys=BENCH_KEYS, measure_ops=BENCH_OPS)
    defaults.update(overrides)
    return RunConfig(**defaults)


def print_figure(title: str, headers: List[str], rows: List[List[str]],
                 notes: Optional[List[str]] = None) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
    print(format_table(headers, rows))
    for note in notes or []:
        print(f"  note: {note}")
    print()


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark.

    A full simulation takes seconds; repeating it for statistical rounds
    would multiply the suite's runtime for no benefit (the simulator is
    deterministic).
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
