"""Host cost of building stores: ``Engine.__init__`` at suite sizes,
and the peak memory of a fleet that builds one store per node.

Engine construction populates the store and prefills the fast-path
table.  Its cost grows with the key count while a run's op count stays
fixed, so it is what a larger-key suite pays for first.  This bench
times it for the two chained-hash programs, whose populate is one bulk
allocator pass (``ChainedHashIndex.populate``): Redis and
unordered_map, on the baseline front-end (populate only) and on stlt
(populate and the STLT prefill), at 20k, 50k and 100k keys.

Each build is timed with ``time.thread_time``, the CPU time of this
thread, so time that other tenants of a shared host take from it does
not count.  Before each build the hash memos are cleared, so every
build hashes its keys cold, as a fresh process does.  The configs are
built round-robin, ``reps`` rounds, and each reports its median.

The fleet rows run ``run_cluster`` on the quiet failover fleet (the
e2e ``failover`` workload's fleet without its fault plan: 4,000 keys
per node, 20,000 overlay requests) at 8, 16 and 32 nodes, each in a
fresh subprocess.  A row reports the subprocess's peak RSS
(``ru_maxrss``), the thread time of ``run_cluster`` and the objects
the cyclic garbage collector freed during it, medians over ``reps``
subprocesses.  ``run_cluster`` builds one engine per node, one after
another; each is freed by reference counting once it is dropped, so
the peak is about one node's store, not the stores the collector has
not yet reached.  On Linux a child's ``ru_maxrss`` starts at its
parent's peak, so the fleet rows run first, while this process holds
no large store, and a row whose peak does not exceed this process's
own fails the bench.

It first checks two preconditions and exits 1 with ``precondition
failed`` if a Redis or unordered_map populate calls ``build_insert``
per key (the bench would then time the per-key build it exists to
track), or if a dropped node engine leaves cyclic garbage (the fleet
rows would then measure when the collector happens to run).

Emits ``BENCH_setup.json`` at the repo root.

Usage::

    PYTHONPATH=src python -m benchmarks.bench_setup            # 5 rounds
    PYTHONPATH=src python -m benchmarks.bench_setup --reps 3
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.cluster.service import run_cluster
from repro.hashes.registry import HASH_FUNCTIONS
from repro.kvs.chained_hash import ChainedHashIndex
from repro.sim.config import RunConfig
from repro.sim.engine import Engine

ROOT = Path(__file__).resolve().parent.parent
OUT_PATH = ROOT / "BENCH_setup.json"

PROGRAMS = ("redis", "unordered_map")
FRONTENDS = ("baseline", "stlt")
KEY_COUNTS = (20_000, 50_000, 100_000)

#: the quiet failover fleet: benchmarks/e2e's failover workload
#: without its crash and restart, at 20,000 overlay requests
FLEET = dict(program="unordered_map", frontend="stlt", num_keys=4_000,
             measure_ops=2_000, warmup_ops=2_000, exec_mode="batched",
             replicas=1, net_rtt_cycles=300.0, arrival_process="poisson",
             cluster_timeout=8.0, offered_load=0.5,
             service_requests=20_000)
FLEET_NODES = (8, 16, 32)


def check_bulk_populate() -> None:
    """Precondition: neither program's populate calls ``build_insert``."""
    calls = []
    build_insert = ChainedHashIndex.build_insert

    def counted(index, key, record):
        calls.append(key)
        build_insert(index, key, record)

    ChainedHashIndex.build_insert = counted
    try:
        for program in PROGRAMS:
            Engine(RunConfig(program=program, num_keys=1_000))
            if calls:
                raise AssertionError(
                    f"precondition failed: the {program} populate called "
                    f"build_insert {len(calls)} time(s); it should build "
                    "the store in one ChainedHashIndex.populate pass")
    finally:
        ChainedHashIndex.build_insert = build_insert


def check_no_cyclic_garbage() -> None:
    """Precondition: a fleet's dropped node engines leave nothing for
    the cyclic collector (a two-node fleet, built and run with the
    collector off)."""
    config = RunConfig(**dict(FLEET, nodes=2, num_keys=500,
                              measure_ops=200, warmup_ops=200,
                              service_requests=1_000))
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run_cluster(config)
        garbage = gc.collect()
    finally:
        if enabled:
            gc.enable()
    if garbage:
        raise AssertionError(
            f"precondition failed: a dropped two-node fleet left "
            f"{garbage} object(s) of cyclic garbage; every node engine "
            "should be freed by reference counting when it is dropped")


def measure_fleet(nodes: int) -> dict:
    """Run the fleet once in this process: peak RSS, thread time and
    the objects the cyclic collector freed (meant for a fresh
    process, see :func:`fleet_row`)."""
    config = RunConfig(**dict(FLEET, nodes=nodes))
    gc.collect()  # count only what the run leaves
    collected = sum(s["collected"] for s in gc.get_stats())
    t0 = time.thread_time()
    run_cluster(config)
    seconds = time.thread_time() - t0
    return {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "cpu_s": seconds,
        "gc_collected": sum(s["collected"] for s in gc.get_stats())
        - collected,
    }


def fleet_row(nodes: int, reps: int) -> dict:
    """Medians of ``reps`` fresh subprocesses of :func:`measure_fleet`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT),
                    os.environ.get("PYTHONPATH")) if p))
    runs = []
    for _ in range(reps):
        launcher_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out = subprocess.run(
            [sys.executable, "-m", "benchmarks.bench_setup",
             "--fleet-nodes", str(nodes)],
            cwd=ROOT, env=env, check=True, capture_output=True, text=True)
        runs.append(json.loads(out.stdout.splitlines()[-1]))
        if runs[-1]["peak_rss_mb"] <= launcher_mb:
            raise AssertionError(
                f"the {nodes}-node fleet's peak RSS reads "
                f"{runs[-1]['peak_rss_mb']:.2f} MB, no more than this "
                f"process's {launcher_mb:.2f} MB, which a child's "
                "ru_maxrss starts from: it measures the launcher")
    return {
        "nodes": nodes,
        "keys_per_node": FLEET["num_keys"],
        "service_requests": FLEET["service_requests"],
        "peak_rss_mb": round(statistics.median(
            r["peak_rss_mb"] for r in runs), 2),
        "cpu_s": round(statistics.median(r["cpu_s"] for r in runs), 3),
        "gc_collected": max(r["gc_collected"] for r in runs),
        "min_peak_rss_mb": round(min(r["peak_rss_mb"] for r in runs), 2),
        "max_peak_rss_mb": round(max(r["peak_rss_mb"] for r in runs), 2),
    }


def time_build(config: RunConfig) -> float:
    """CPU seconds of one ``Engine(config)`` with cold hash memos."""
    for spec in HASH_FUNCTIONS.values():
        spec._cache.clear()
    gc.collect()
    t0 = time.thread_time()
    engine = Engine(config)
    seconds = time.thread_time() - t0
    del engine
    return seconds


def run_bench(reps: int) -> dict:
    # first: a child's ru_maxrss starts at this process's peak
    fleet = []
    for nodes in FLEET_NODES:
        fleet.append(fleet_row(nodes, reps))
        row = fleet[-1]
        print(f"{nodes:>3}-node fleet: peak RSS {row['peak_rss_mb']:.2f} MB"
              f", run_cluster {row['cpu_s']:.3f} s, collector freed "
              f"{row['gc_collected']} object(s)")
    configs = [RunConfig(program=program, frontend=frontend,
                         num_keys=num_keys)
               for num_keys in KEY_COUNTS
               for program in PROGRAMS
               for frontend in FRONTENDS]
    samples: List[List[float]] = [[] for _ in configs]
    for _ in range(reps):
        for config, times in zip(configs, samples):
            times.append(time_build(config))
    rows = []
    for config, times in zip(configs, samples):
        median = statistics.median(times)
        rows.append({
            "program": config.program,
            "frontend": config.frontend,
            "num_keys": config.num_keys,
            "seconds": round(median, 4),
            "us_per_key": round(median / config.num_keys * 1e6, 3),
            "min_seconds": round(min(times), 4),
            "max_seconds": round(max(times), 4),
        })
        print(f"{config.program:>13} {config.frontend:>8} "
              f"{config.num_keys:>7,} keys: {median:.3f} s "
              f"({rows[-1]['us_per_key']:.2f} us/key)")
    return {
        "benchmark": "setup",
        "timer": "time.thread_time, cold hash memos",
        "reps": reps,
        "rows": rows,
        "fleet": {
            "config": "quiet failover fleet, one fresh subprocess per run",
            "rss": "ru_maxrss of the subprocess",
            "rows": fleet,
        },
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def test_bulk_populate_precondition():
    """Pytest entry: the precondition holds."""
    check_bulk_populate()


def test_no_cyclic_garbage_precondition():
    """Pytest entry: dropped node engines leave no cyclic garbage."""
    check_no_cyclic_garbage()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.bench_setup")
    parser.add_argument("--reps", type=int, default=5,
                        help="rounds over every config (default 5)")
    parser.add_argument("--fleet-nodes", type=int, metavar="N",
                        help="run one N-node fleet in this process and "
                        "print its measurements as JSON (what each "
                        "fleet row's subprocess runs)")
    args = parser.parse_args(argv)
    if args.fleet_nodes is not None:
        print(json.dumps(measure_fleet(args.fleet_nodes)))
        return 0
    try:
        check_bulk_populate()
        check_no_cyclic_garbage()
        payload = run_bench(args.reps)
    except AssertionError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
