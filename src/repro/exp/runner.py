"""Fault-tolerant parallel sweep execution.

:class:`SweepRunner` takes an ordered list of
:class:`~repro.exp.spec.SweepPoint` and produces one
:class:`RunOutcome` per point, executing missing runs on a
``ProcessPoolExecutor`` (or in-process when ``jobs <= 1``).  Guarantees:

* **Parallel == serial.**  The simulator is deterministic (seeded
  workloads, no wall-clock in the model), workers return the full
  ``RunResult`` dict, and outcomes are re-ordered to the point order of
  the spec — so a ``--jobs 8`` sweep writes bit-identical ``config`` /
  ``result`` payloads to a ``--jobs 1`` sweep.  Only ``meta`` (wall
  time, worker pid, attempt count) may differ.
* **Crash isolation.**  A worker that *raises* returns a structured
  failure payload (exceptions never cross the pool boundary); a worker
  that *dies* (segfault, ``os._exit``) breaks the pool for every run in
  flight.  None of them is charged for that; after the round each
  re-runs alone in a one-worker pool, where a crash is its own.  Either
  way only the offending run is retried up to ``retries`` times with
  exponential backoff and then marked ``failed`` — the sweep always
  completes.
* **Per-run timeout** enforced *inside* the worker via ``SIGALRM``
  (sub-second resolution through ``setitimer``), so a hung simulation
  frees its pool slot instead of wedging the campaign.
* **Deduplication + durability.**  Points are deduplicated by config
  content hash (a shared baseline executes once), results stream into
  the :class:`~repro.exp.store.ResultStore` as they arrive, and cached
  keys are served from the store without re-simulation unless
  ``fresh=True``.

A custom ``run_fn`` (any picklable module-level callable
``RunConfig -> RunResult``) substitutes for the real simulator — the
fault-injection tests use this, and it keeps the runner generic.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..sim.config import RunConfig
from ..sim.engine import run_experiment
from ..sim.results import RunResult
from .spec import SweepPoint
from .store import ResultStore, make_record

__all__ = ["SweepRunner", "SweepReport", "RunOutcome", "RunTimeout",
           "STATUS_COMPLETED", "STATUS_CACHED", "STATUS_FAILED"]

STATUS_COMPLETED = "completed"
STATUS_CACHED = "cached"
STATUS_FAILED = "failed"


class RunTimeout(Exception):
    """A run exceeded the per-run timeout (raised inside the worker)."""


# ----------------------------------------------------------------------
# worker side (module-level so it pickles by reference)
# ----------------------------------------------------------------------

def _call_with_timeout(run_fn: Callable[[RunConfig], RunResult],
                       config: RunConfig,
                       timeout: Optional[float]) -> RunResult:
    """Run ``run_fn`` under a SIGALRM deadline where that is possible.

    Pool workers execute tasks on their main thread, so the alarm is
    available there; the in-process (serial) path only arms it when
    called from the main thread of the parent.  Platforms without
    ``SIGALRM`` fall back to no enforcement rather than failing.
    """
    can_alarm = (
        timeout is not None and timeout > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not can_alarm:
        return run_fn(config)

    def _on_alarm(signum, frame):  # pragma: no cover - trivial
        raise RunTimeout(f"run exceeded {timeout:g}s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return run_fn(config)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _worker(key: str, config: RunConfig,
            run_fn: Optional[Callable[[RunConfig], RunResult]],
            timeout: Optional[float]) -> Tuple[str, dict]:
    """Execute one run; exceptions become structured failure payloads."""
    start = time.perf_counter()
    fn = run_fn if run_fn is not None else run_experiment
    try:
        result = _call_with_timeout(fn, config, timeout)
        payload = {
            "ok": True,
            "result": result.to_dict(),
            "wall_time": time.perf_counter() - start,
            "worker_pid": os.getpid(),
        }
    except Exception as exc:
        payload = {
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "timed_out": isinstance(exc, RunTimeout),
            "wall_time": time.perf_counter() - start,
            "worker_pid": os.getpid(),
        }
    return key, payload


def _payload(future) -> dict:
    """A pool future's worker payload, or a failure payload when the
    future itself failed (``crashed`` marks a dead worker)."""
    try:
        return future.result()[1]
    except BrokenProcessPool:
        return {"ok": False,
                "error": "worker process died (BrokenProcessPool)",
                "crashed": True, "wall_time": 0.0}
    except Exception as exc:  # future-layer failure
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}",
                "wall_time": 0.0}


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------

@dataclass
class RunOutcome:
    """What happened to one sweep point."""

    label: str
    key: str
    config: RunConfig
    status: str  # completed | cached | failed
    record: Optional[dict] = None  # full store record when not failed
    error: Optional[str] = None
    wall_time: float = 0.0
    attempts: int = 0

    @property
    def result(self) -> Optional[RunResult]:
        if self.record is None:
            return None
        return RunResult.from_dict(self.record["result"])


@dataclass
class SweepReport:
    """Ordered outcomes of a sweep plus aggregate counters."""

    outcomes: List[RunOutcome] = field(default_factory=list)

    def __iter__(self):
        return iter(self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)

    def _count(self, status: str) -> int:
        return sum(1 for o in self.outcomes if o.status == status)

    @property
    def completed(self) -> int:
        return self._count(STATUS_COMPLETED)

    @property
    def cached(self) -> int:
        return self._count(STATUS_CACHED)

    @property
    def failed(self) -> List[RunOutcome]:
        return [o for o in self.outcomes if o.status == STATUS_FAILED]

    @property
    def ok(self) -> bool:
        return not self.failed

    def by_label(self) -> Dict[str, RunOutcome]:
        return {o.label: o for o in self.outcomes}

    def summary(self) -> str:
        return (f"{len(self.outcomes)} runs: {self.completed} completed, "
                f"{self.cached} cached, {len(self.failed)} failed")


class SweepRunner:
    """Fan a sweep out over worker processes, durably recording results."""

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        jobs: int = 1,
        timeout: Optional[float] = None,
        retries: int = 1,
        backoff: float = 0.25,
        fresh: bool = False,
        run_fn: Optional[Callable[[RunConfig], RunResult]] = None,
        progress: Optional[object] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.store = store
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.fresh = fresh
        self.run_fn = run_fn
        self.progress = progress

    # -- public API -------------------------------------------------------

    def run(self, points: Sequence[SweepPoint]) -> SweepReport:
        """Execute a sweep; returns outcomes in point order."""
        unique: Dict[str, SweepPoint] = {}
        for point in points:
            unique.setdefault(point.key, point)

        cached: Dict[str, dict] = {}
        todo: List[SweepPoint] = []
        for key, point in unique.items():
            record = None if (self.fresh or self.store is None) \
                else self.store.get(key)
            if record is not None:
                cached[key] = record
            else:
                todo.append(point)

        self._emit("begin", total=len(points), unique=len(unique),
                   cached=len(cached), to_run=len(todo))
        for key, record in cached.items():
            self._emit("run", label=unique[key].label,
                       status=STATUS_CACHED, wall_time=0.0)

        executed = self._execute({p.key: p for p in todo})

        outcomes: List[RunOutcome] = []
        per_key: Dict[str, RunOutcome] = {}
        for key, point in unique.items():
            if key in cached:
                per_key[key] = RunOutcome(
                    label=point.label, key=key, config=point.config,
                    status=STATUS_CACHED, record=cached[key])
            else:
                per_key[key] = executed[key]
        for point in points:
            base = per_key[point.key]
            outcomes.append(RunOutcome(
                label=point.label, key=point.key, config=point.config,
                status=base.status, record=base.record, error=base.error,
                wall_time=base.wall_time, attempts=base.attempts))

        report = SweepReport(outcomes=outcomes)
        self._emit("end", summary=report.summary(), report=report)
        return report

    # -- execution --------------------------------------------------------

    def _execute(self, tasks: Dict[str, SweepPoint]) -> Dict[str, RunOutcome]:
        """Run every task, with bounded retry; never raises for one run."""
        outcomes: Dict[str, RunOutcome] = {}
        attempts: Dict[str, int] = {key: 0 for key in tasks}
        pending = list(tasks.values())
        round_no = 0
        while pending:
            round_no += 1
            if round_no > 1 and self.backoff > 0:
                time.sleep(min(self.backoff * (2 ** (round_no - 2)), 10.0))
            if self.jobs == 1:
                pending = self._serial_round(pending, attempts, outcomes)
            else:
                pending = self._parallel_round(pending, attempts, outcomes)
        return outcomes

    def _serial_round(self, pending, attempts, outcomes):
        retry = []
        for point in pending:
            attempts[point.key] += 1
            _, payload = _worker(point.key, point.config, self.run_fn,
                                 self.timeout)
            if not self._settle(point, payload, attempts, outcomes):
                retry.append(point)
        return retry

    def _parallel_round(self, pending, attempts, outcomes):
        retry: List[SweepPoint] = []
        broken: List[SweepPoint] = []
        with ProcessPoolExecutor(max_workers=self.jobs) as pool:
            futures = {}
            for point in pending:
                attempts[point.key] += 1
                futures[pool.submit(_worker, point.key, point.config,
                                    self.run_fn, self.timeout)] = point
            not_done = set(futures)
            while not_done:
                done, not_done = wait(not_done,
                                      return_when=FIRST_COMPLETED)
                for future in done:
                    point = futures[future]
                    payload = _payload(future)
                    if payload.get("crashed"):
                        # a worker died and took the pool down with every
                        # run in flight; which run killed it is unknown,
                        # so each keeps this attempt and replays it alone
                        broken.append(point)
                    elif not self._settle(point, payload, attempts,
                                          outcomes):
                        retry.append(point)
        for point in broken:
            with ProcessPoolExecutor(max_workers=1) as pool:
                # alone in its pool, a crash is this run's own
                payload = _payload(pool.submit(
                    _worker, point.key, point.config, self.run_fn,
                    self.timeout))
            if not self._settle(point, payload, attempts, outcomes):
                retry.append(point)
        return retry

    def _settle(self, point: SweepPoint, payload: dict,
                attempts: Dict[str, int],
                outcomes: Dict[str, RunOutcome]) -> bool:
        """Record a worker payload; False means the run must be retried."""
        attempt = attempts[point.key]
        if payload.get("ok"):
            result = RunResult.from_dict(payload["result"])
            meta = {
                "wall_time": payload.get("wall_time", 0.0),
                "worker_pid": payload.get("worker_pid"),
                "attempt": attempt,
            }
            record = make_record(point.config, result, meta=meta,
                                 label=point.label)
            if self.store is not None:
                self.store.put_record(record)
            outcomes[point.key] = RunOutcome(
                label=point.label, key=point.key, config=point.config,
                status=STATUS_COMPLETED, record=record,
                wall_time=payload.get("wall_time", 0.0), attempts=attempt)
            self._emit("run", label=point.label, status=STATUS_COMPLETED,
                       wall_time=payload.get("wall_time", 0.0))
            return True
        if attempt <= self.retries:
            self._emit("retry", label=point.label,
                       error=payload.get("error"), attempt=attempt)
            return False
        outcomes[point.key] = RunOutcome(
            label=point.label, key=point.key, config=point.config,
            status=STATUS_FAILED, error=payload.get("error"),
            wall_time=payload.get("wall_time", 0.0), attempts=attempt)
        self._emit("run", label=point.label, status=STATUS_FAILED,
                   wall_time=payload.get("wall_time", 0.0),
                   error=payload.get("error"))
        return True

    # -- progress ---------------------------------------------------------

    def _emit(self, event: str, **info) -> None:
        if self.progress is None:
            return
        handler = getattr(self.progress, f"on_{event}", None)
        if handler is not None:
            handler(**info)
