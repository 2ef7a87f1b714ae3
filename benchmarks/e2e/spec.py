"""What the benchmark measures: workloads, metrics, units and bounds.

This module is pure data and imports nothing from ``repro``, so the
orchestrator can describe, summarise and compare runs without loading
the simulator.  The workload *configs* live in :mod:`.workloads`, which
does import ``repro`` and only ever runs inside a worker subprocess.

Host metrics time the Python simulator in CPU seconds scaled to a
reference host speed (see :mod:`.worker`); they are noisy, so they carry
a regression bound (a share of the parent's median) read from the
repository's ``BENCHMARK.json``.  Simulated metrics are deterministic per
seed, so any change to one counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple

#: the checkout root: benchmarks/e2e/spec.py -> parents[2]
ROOT = Path(__file__).resolve().parents[2]
OUT_DIR = Path(__file__).resolve().parent / "out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

SCALES = ("smoke", "full")

#: the paper's Fig. 11 Redis GET speedup, printed beside sim_speedup
PAPER_FIG11_SPEEDUP = 1.38

#: CPU seconds one calibration unit (:class:`.worker.HostClock`) takes
#: on the reference host, a shared 2-core x86_64 VM with Python 3.11;
#: host times are reported at that speed
REFERENCE_UNIT_S = 0.0004


@dataclass(frozen=True)
class WorkloadInfo:
    name: str
    #: why the workload is in the benchmark (one line, BENCHMARK.json)
    why: str
    #: the layers it loads, heaviest first, and the ones it barely touches
    layers: str


WORKLOADS: Tuple[WorkloadInfo, ...] = (
    WorkloadInfo(
        "fig11",
        "The paper's headline point (Redis GETs, 20k keys) where the "
        "TLB-miss path fires; baseline and STLT run over the same seed",
        "mem miss path (walker, L3, DRAM), hashes (set-up), sim, core, "
        "kvs -> little sim all-hit kernel"),
    WorkloadInfo(
        "hot",
        "Working set fits the TLBs and caches (0 walks), so the fused "
        "all-hit batched kernel is nearly the whole run; the bypass "
        "workload for miss-path changes",
        "sim, workloads -> almost no mem walker/DRAM or hashes compute"),
    WorkloadInfo(
        "churn",
        "Two-core open loop with 5% SETs and OS churn: inserts, IPB and "
        "scrubs, shared L3/DRAM contention, the chaos oracle, the "
        "reference and legacy svc loops",
        "mem, reference sim, core IPB/OS interface, chaos, hashes, kvs "
        "inserts, svc"),
    WorkloadInfo(
        "failover",
        "Eight-node cluster overlay with a scripted crash and restart: "
        "routing, retries, promotion and the acked-write oracle",
        "cluster (about 55%) -> node engines"),
    WorkloadInfo(
        "hetero",
        "Mixed fleet of six full and two accelerator nodes: "
        "capability-aware dispatch and the accelerator lookup pipeline",
        "cluster, hetero -> no failover"),
)
WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)

ENGINE_WORKLOADS = ("fig11", "hot", "churn")
OPEN_LOOP_WORKLOADS = ("churn", "failover", "hetero")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    #: "lower" or "higher"
    better: str
    #: "host" (timed, bounded) or "sim" (deterministic, exact)
    kind: str
    workloads: Tuple[str, ...]
    #: absolute slack added to a host metric's share bound
    abs_floor: float = 0.0


METRICS: Tuple[Metric, ...] = (
    Metric("cpu_s", "s", "lower", "host", WORKLOAD_NAMES),
    Metric("setup_s", "s", "lower", "host", WORKLOAD_NAMES,
           abs_floor=0.05),
    Metric("host_ops_per_s", "1/s", "higher", "host", WORKLOAD_NAMES),
    Metric("peak_rss_mb", "MB", "lower", "host", WORKLOAD_NAMES),
    Metric("sim_cycles_per_op", "cycles/op", "lower", "sim",
           ENGINE_WORKLOADS),
    Metric("sim_speedup", "x", "higher", "sim", ("fig11",)),
    Metric("sim_p50_cycles", "cycles", "lower", "sim", OPEN_LOOP_WORKLOADS),
    Metric("sim_p99_cycles", "cycles", "lower", "sim", OPEN_LOOP_WORKLOADS),
    Metric("failed_frac", "ratio", "lower", "sim", WORKLOAD_NAMES),
)
METRICS_BY_NAME: Dict[str, Metric] = {m.name: m for m in METRICS}

#: the ten ``src/repro`` packages the traced round attributes host time to
LAYERS = ("workloads", "hashes", "kvs", "mem", "core", "sim", "chaos",
          "svc", "cluster", "hetero")

#: per-layer metrics (name -> unit).  ``<layer>.self_s`` and the
#: ``trace.*`` rows come from the traced round; the rest are counts the
#: simulator reports (RunResult / ClusterResult) or call counts taken
#: by the trace wrappers
LAYER_METRICS: Dict[str, str] = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "unattributed.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "x",
    "workloads.ops_generated": "count",
    "hashes.calls": "count",
    "hashes.memo_hit_ratio": "ratio",
    "kvs.lookups": "count",
    "kvs.inserts": "count",
    "kvs.index_cycles_per_op": "cycles/op",
    "mem.accesses": "count",
    "mem.host_ns_per_access": "ns",
    "mem.page_walks": "count",
    "mem.stlb_misses": "count",
    "mem.l3_misses": "count",
    "mem.dram_queue_cycles": "cycles",
    "mem.translation_cycles_per_op": "cycles/op",
    "core.load_va_calls": "count",
    "core.insert_stlt_calls": "count",
    "core.stlt_miss_rate": "ratio",
    "core.stb_hit_ratio": "ratio",
    "core.ipb_inserts": "count",
    "core.rows_scrubbed": "count",
    "sim.ops": "count",
    "chaos.events": "count",
    "chaos.oracle_checks": "count",
    "chaos.oracle_violations": "count",
    "svc.requests": "count",
    "svc.max_queue_depth": "count",
    "svc.busy_fraction_max": "ratio",
    "cluster.requests": "count",
    "cluster.route_hit_ratio": "ratio",
    "cluster.moved_redirects": "count",
    "cluster.retries": "count",
    "cluster.failed_requests": "count",
    "cluster.promotions": "count",
    "cluster.net_wait_cycles": "cycles",
    "cluster.busy_fraction_max": "ratio",
    "hetero.installs": "count",
    "hetero.accel_hit_fraction": "ratio",
    "hetero.fallback_rate": "ratio",
    "hetero.capability_violations": "count",
}


def load_benchmark_json() -> dict:
    """The repository's benchmark declaration (bounds, run length)."""
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)


def host_bounds() -> Dict[str, float]:
    """Regression bound (share of the parent's median) per host metric."""
    return {m["name"]: float(m["bound"])
            for m in load_benchmark_json()["end_to_end"]}
