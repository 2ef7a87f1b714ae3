"""Host time of a store build: ``Engine.__init__`` at suite sizes.

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

It first checks its precondition and exits 1 with ``precondition
failed`` if a Redis or unordered_map populate calls ``build_insert``
per key (the bench would then time the per-key build it exists to
track).

Emits ``BENCH_setup.json`` at the repo root.

Usage::

    PYTHONPATH=src python -m benchmarks.bench_setup            # 5 rounds
    PYTHONPATH=src python -m benchmarks.bench_setup --reps 3
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.hashes.registry import HASH_FUNCTIONS
from repro.kvs.chained_hash import ChainedHashIndex
from repro.sim.config import RunConfig
from repro.sim.engine import Engine

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_setup.json"

PROGRAMS = ("redis", "unordered_map")
FRONTENDS = ("baseline", "stlt")
KEY_COUNTS = (20_000, 50_000, 100_000)


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
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def test_bulk_populate_precondition():
    """Pytest entry: the precondition holds."""
    check_bulk_populate()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.bench_setup")
    parser.add_argument("--reps", type=int, default=5,
                        help="rounds over every config (default 5)")
    args = parser.parse_args(argv)
    try:
        check_bulk_populate()
    except AssertionError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    payload = run_bench(args.reps)
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
