"""Host-speed trajectory of the batched execution fast path.

Unlike the figure benchmarks (which report *simulated* cycles through
the durable store), this one measures real ops/sec of the Python
simulator itself: the same config run in ``reference`` vs. ``batched``
execution mode, at several sizes, over pre-generated op arrays
(workload generation is deterministic and identical for both modes, so
it is hoisted out of the timed region — the batched mode's whole
premise is driving pre-generated arrays through fused kernels).

Each size runs N pairs of one reference and one batched run, and the
mode that goes first alternates from pair to pair.  Every run is timed
with ``time.thread_time``, the CPU time of this thread, so time that
other tenants of a shared host take from it does not count.  The
speedup is the ratio of the two modes' medians.  The best-of-25
wall-clock ratio this replaced read 2.39-4.03x in 24 runs of one
unchanged tree, 4 of them below the floor; this one read 2.79-3.42x
in 36 runs of the same tree, 32 of them within 3.08-3.23x (a shared
2-core x86_64 VM, CPython 3.11).

Emits ``BENCH_fastpath.json`` at the repo root and **fails** (exit 1 /
assertion) if the smoke-config speedup regresses below the pinned
floor.  CI runs this as the fastpath-smoke job.

Usage::

    PYTHONPATH=src python -m benchmarks.bench_fastpath           # full
    PYTHONPATH=src python -m benchmarks.bench_fastpath --smoke   # floor only
"""

from __future__ import annotations

import dataclasses
import json
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import List

from repro.sim.config import RunConfig
from repro.sim.engine import Engine
from repro.sim.fastpath import BatchedOpExecutor
from repro.sim.multicore import MultiCoreEngine
from repro.workloads.ycsb import WorkloadSpec

#: the pinned floor: batched must be at least this much faster than
#: reference on the smoke config
SPEEDUP_FLOOR = 3.0

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_fastpath.json"

#: (name, config, timed pairs) — smoke first: it carries the floor
SIZES = (
    ("smoke", dict(num_keys=200, measure_ops=60, warmup_ops=120), 100),
    ("small", dict(num_keys=2_000, measure_ops=1_000,
                   warmup_ops=1_000), 5),
    ("medium", dict(num_keys=10_000, measure_ops=4_000,
                    warmup_ops=2_000), 3),
    # Redis GETs through the same kernel, at the small size
    ("redis", dict(program="redis", num_keys=2_000, measure_ops=1_000,
                   warmup_ops=1_000), 5),
    # ... and on the baseline front-end, through the chained-hash kernel
    ("redis_baseline", dict(program="redis", frontend="baseline",
                            num_keys=2_000, measure_ops=1_000,
                            warmup_ops=1_000), 5),
)


def check_fused(name: str, engine: Engine) -> None:
    """Precondition: the batched mode must fuse the config.  One it
    does not fuse runs ``MultiCoreEngine``'s reference loop in both
    modes, so its ratio would time reference against reference."""
    if not BatchedOpExecutor(engine).fused:
        raise AssertionError(
            f"precondition failed: the {name} config is not fused "
            "(BatchedOpExecutor.fused is False), so both modes run the "
            "reference loop; bench a config the fast path fuses "
            "(frontend stlt or stlt_va on any program, or baseline on "
            "redis or unordered_map)")


def measure_size(name: str, size: dict, pairs: int) -> dict:
    config = RunConfig(**{"frontend": "stlt", **size})
    spec = WorkloadSpec(distribution=config.distribution,
                        value_size=config.value_size)
    check_fused(name, Engine(config))
    # one pre-generated op array set, shared by both modes (generation
    # is deterministic per config; run() validates the shape)
    streams = MultiCoreEngine(Engine(config))._streams(spec)
    total_ops = config.total_ops * config.num_cores
    out = {"name": name, **size, "total_ops": total_ops, "pairs": pairs}
    times = {"reference": [], "batched": []}
    configs = {
        mode: dataclasses.replace(config, exec_mode=mode)
        for mode in times
    }
    modes = tuple(times)
    for i in range(pairs):
        # the two runs of a pair share a window of the host's speed; the
        # first run alternates, so neither mode always runs in the
        # second half of the window (or after the other's allocations)
        for mode in modes if i % 2 == 0 else modes[::-1]:
            mc = MultiCoreEngine(Engine(configs[mode]))
            t0 = time.thread_time()
            mc.run(streams=streams)
            times[mode].append(time.thread_time() - t0)
    medians = {mode: statistics.median(samples)
               for mode, samples in times.items()}
    for mode, secs in medians.items():
        out[mode] = {
            "seconds": round(secs, 6),
            "us_per_op": round(secs / total_ops * 1e6, 3),
            "ops_per_sec": round(total_ops / secs, 1),
        }
    out["speedup"] = round(medians["reference"] / medians["batched"], 3)
    return out


def run_bench(smoke_only: bool = False) -> dict:
    sizes: List[dict] = []
    for name, size, pairs in SIZES:
        sizes.append(measure_size(name, size, pairs))
        print(f"{name:>14}: ref={sizes[-1]['reference']['us_per_op']:.2f}"
              f"us/op batched={sizes[-1]['batched']['us_per_op']:.2f}"
              f"us/op speedup={sizes[-1]['speedup']:.2f}x")
        if smoke_only:
            break
    return {
        "benchmark": "fastpath",
        "floor": SPEEDUP_FLOOR,
        "smoke_speedup": sizes[0]["speedup"],
        "sizes": sizes,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def check_floor(payload: dict) -> None:
    smoke = payload["smoke_speedup"]
    if smoke < payload["floor"]:
        raise AssertionError(
            f"fast path regressed: smoke speedup {smoke:.2f}x is below "
            f"the pinned {payload['floor']:.1f}x floor")


def test_fastpath_speedup_floor():
    """Pytest entry: the smoke config must hold the pinned floor."""
    payload = run_bench(smoke_only=True)
    check_floor(payload)


def main(argv: List[str]) -> int:
    smoke_only = "--smoke" in argv
    try:
        payload = run_bench(smoke_only=smoke_only)
        if not smoke_only:
            OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
            print(f"wrote {OUT_PATH}")
        check_floor(payload)
    except AssertionError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    print(f"ok: smoke speedup {payload['smoke_speedup']:.2f}x >= "
          f"{SPEEDUP_FLOOR:.1f}x floor")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
