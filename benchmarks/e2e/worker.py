"""One workload run in a fresh process; prints one JSON line.

The orchestrator (``python -m benchmarks.e2e``) starts this module once
per run, so every run starts cold: ``HashSpec`` memoises hashes in a
process-global table, which would otherwise make ``setup_s`` depend on
what ran earlier in the process.

Usage (normally invoked by the orchestrator)::

    PYTHONPATH=src python -m benchmarks.e2e.worker run \\
        --workload fig11 --seed 1 [--scale smoke] [--trace]
    PYTHONPATH=src python -m benchmarks.e2e.worker crossmode \\
        --workload hot --seed 1

A run that raises (an oracle, ``KVSError``) is reported with its
traceback and ``failed_frac`` 1.0, and the process exits 1.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import threading
import time
import traceback
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from . import workloads
from .spec import OUT_DIR, REFERENCE_UNIT_S, SCALES, WORKLOAD_NAMES
from .trace import Tracer

#: CPU seconds between two calibration samples during a run
SAMPLE_PERIOD_S = 0.01


def _calibration_unit() -> int:
    """Fixed interpreter-bound work: dict stores and lookups, integer
    arithmetic.  It must never call ``repro``, or a change that speeds
    up the simulator would speed up its own yardstick."""
    table: dict = {}
    acc = 0
    for i in range(2_000):
        table[i & 255] = i
        acc += table.get((i * 7) & 255, 0)
    return acc


class HostClock:
    """CPU time of a run and of its engine set-up, at the reference
    host's speed.

    Host times are CPU seconds of this single-threaded process, so time
    the hypervisor or other tenants take from it does not count.  What
    the tenants still change is how fast the CPU runs it: on a shared VM
    by 20% from one second to the next.  So while the clock runs, a
    CPU-time interval timer interrupts the run every ``SAMPLE_PERIOD_S``
    to time one calibration unit.  A phase's CPU time, less the
    sampling, is scaled by ``REFERENCE_UNIT_S`` over the mean unit time
    sampled in that phase.

    Set-up is the time inside ``Engine.__init__`` (populate + prefill),
    summed over every engine the run builds — including the node engines
    ``run_cluster`` builds internally; the rest is the run phase.

    The thread CPU clock is read, not the process one: while a process
    CPU timer is armed, Linux serves the process clock at tick
    granularity.
    """

    PHASES = ("setup", "run")

    def __init__(self) -> None:
        self._phase = "run"
        #: phase -> thread CPU seconds, sampling included
        self.cpu: Dict[str, float] = dict.fromkeys(self.PHASES, 0.0)
        #: phase -> thread CPU seconds spent sampling
        self.sampling: Dict[str, float] = dict.fromkeys(self.PHASES, 0.0)
        #: phase -> CPU seconds of every calibration unit sampled in it
        self.units: Dict[str, List[float]] = {p: [] for p in self.PHASES}

    def _sample(self, _signum, _frame) -> None:
        start = time.thread_time()
        _calibration_unit()
        self.units[self._phase].append(time.thread_time() - start)
        self.sampling[self._phase] += time.thread_time() - start

    @contextmanager
    def running(self) -> Iterator["HostClock"]:
        from repro.sim.engine import Engine
        original = Engine.__dict__["__init__"]
        clock = self

        def timed_init(engine, *args, **kwargs):
            clock._phase = "setup"
            start = time.thread_time()
            try:
                original(engine, *args, **kwargs)
            finally:
                clock.cpu["setup"] += time.thread_time() - start
                clock._phase = "run"

        Engine.__init__ = timed_init
        previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD_S,
                         SAMPLE_PERIOD_S)
        start = time.thread_time()
        try:
            yield self
        finally:
            total = time.thread_time() - start
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, previous)
            Engine.__init__ = original
            self.cpu["run"] = total - self.cpu["setup"]

    def unit_s(self, phase: Optional[str] = None) -> float:
        """Mean CPU seconds of a calibration unit in ``phase`` (every
        phase when None, or when ``phase`` drew no sample)."""
        units = self.units[phase] if phase else []
        return statistics.fmean(
            units or self.units["setup"] + self.units["run"])

    def seconds(self, phase: str) -> float:
        """CPU seconds of ``phase``, less sampling, at reference speed."""
        return ((self.cpu[phase] - self.sampling[phase])
                * REFERENCE_UNIT_S / self.unit_s(phase))


def _threads() -> int:
    """OS threads of this process (the interpreter's count elsewhere)."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return threading.active_count()


def _trace_metrics(tracer: Tracer) -> dict:
    layers = tracer.layer_self_s()
    out = {f"{layer}.self_s": seconds for layer, seconds in layers.items()}
    hash_calls = tracer.call_count("HashSpec.__call__")
    # the fused batched kernels inline hit-path accesses and call
    # MemorySystem._translate directly, so count every entry into the
    # layer rather than calls of one method
    accesses = tracer.entries("mem")
    out.update({
        "trace.wall_s": tracer.wall_ns / 1e9,
        "workloads.ops_generated": tracer.ops_generated,
        "hashes.calls": hash_calls,
        "hashes.memo_hit_ratio": (tracer.hash_memo_hits / hash_calls
                                  if hash_calls else 0.0),
        "kvs.lookups": tracer.call_count("Index.lookup"),
        "kvs.inserts": tracer.call_count("Index.insert"),
        "mem.accesses": accesses,
        "mem.host_ns_per_access": (layers["mem"] * 1e9 / accesses
                                   if accesses else 0.0),
        "core.load_va_calls": tracer.call_count("STU.load_va"),
        "core.insert_stlt_calls": tracer.call_count("STU.insert_stlt"),
    })
    return out


def run_once(workload: str, seed: int, scale: str, trace: bool) -> dict:
    """Run one workload in this process and describe the run."""
    cfgs = workloads.configs(workload, scale, seed)
    attempted = workloads.attempted(cfgs)
    report: dict = {
        "workload": workload, "seed": seed, "scale": scale,
        "traced": trace,
        "configs": {role: {"label": c.label,
                           "content_hash": c.content_hash,
                           "fields": workloads.describe(c)}
                    for role, c in cfgs.items()},
        "attempted": attempted,
        "error": None,
    }
    tracer: Optional[Tracer] = Tracer() if trace else None
    clock = HostClock()
    if tracer is not None:
        tracer.install()
    try:
        with clock.running():
            if tracer is not None:
                outcome = tracer.run(workloads.run, workload, cfgs)
            else:
                outcome = workloads.run(workload, cfgs)
    except Exception:  # noqa: BLE001 - the run's verdict is the report
        report.update(error=traceback.format_exc(), failed_frac=1.0)
        return report
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_s, run_s = clock.seconds("setup"), clock.seconds("run")
    report.update(
        cpu_s=setup_s + run_s,
        setup_s=setup_s,
        host_ops_per_s=attempted / run_s,
        calibration_unit_s=clock.unit_s(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        threads=_threads(),
        sim=workloads.sim_metrics(outcome),
        checks=[{"name": n, "ok": ok, "detail": d}
                for n, ok, d in workloads.preconditions(outcome)],
        sim_digest=outcome.digest(),
        layers=workloads.layer_counts(outcome),
    )
    if tracer is not None:
        report["layers"].update(_trace_metrics(tracer))
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(tracer.to_dict(), workload=workload, seed=seed,
                           scale=scale), fh, indent=1)
        report["trace_file"] = str(path)
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.worker")
    parser.add_argument("command", choices=("run", "crossmode"))
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=SCALES, default="full")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.command == "crossmode":
        report = {"workload": args.workload, "seed": args.seed,
                  "digests": workloads.cross_mode(args.workload, args.seed)}
    else:
        report = run_once(args.workload, args.seed, args.scale, args.trace)
    print(json.dumps(report, sort_keys=True))
    return 1 if report.get("error") else 0


if __name__ == "__main__":
    sys.exit(main())
