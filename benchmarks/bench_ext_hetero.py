"""Extension: heterogeneous fleets — throughput per silicon dollar.

The asymmetric-scaling argument of ``repro.hetero`` (DESIGN.md section
14): a KV-lookup accelerator node is a hash pipeline plus a fixed
SRAM — :data:`~repro.hetero.fleet.ACCEL_NODE_COST_UNITS` of a
full node's cost — so swapping one full node of a three-node fleet for
an accelerator should win *per cost unit* even before it wins per
node.  This benchmark runs the same seeded small-key, GET-heavy zipf
workload on two equal-node-count fleets — ``3full`` (homogeneous) and
``2full+1accel`` (mixed, capability-aware dispatch, capability oracle
armed) — and pins the headline:

* **cost-normalized floor** — mixed throughput per cost unit must be
  at least :data:`COST_FLOOR` times the homogeneous fleet's (fleet
  costs 2.25 vs 3.0 units, so the floor already holds if raw
  throughput merely stays within 10%; measured raw speedup is >1x
  because the accelerator's initiation interval beats a full node's
  per-op service time);
* **the oracle verdict** — zero capability violations: no write
  was ever *served* by an accelerator (the run would
  have raised :class:`~repro.errors.HeteroError` otherwise);
* **dispatch telemetry** — the accel hit fraction and the fallback
  split (capacity / SET) behind the speedup, so a
  regression is attributable.

Sizes are pinned, not env-scaled: a throughput floor is only
meaningful against one fixed workload.

Emits ``BENCH_hetero.json`` at the repo root and **fails** (exit 1 /
assertion) if the cost-normalized ratio drops below the floor or the
oracle records a violation.  It checks first that every seed's
accelerator hit (``accel_hit_fraction > 0``): a fleet whose
accelerator never serves a lookup says nothing about it.  CI runs the
single-seed form as the hetero-smoke job.

Usage::

    PYTHONPATH=src python -m benchmarks.bench_ext_hetero          # full
    PYTHONPATH=src python -m benchmarks.bench_ext_hetero --smoke  # 1 seed
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path
from typing import List

from repro.hetero.fleet import fleet_cost, parse_node_types
from repro.sim.config import RunConfig
from repro.cluster.service import run_cluster

#: the pinned floor: mixed-fleet throughput per cost unit over the
#: equal-node-count homogeneous fleet's (the ISSUE's acceptance
#: criterion)
COST_FLOOR = 1.2

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_hetero.json"

HOMOGENEOUS = "3full"
MIXED = "2full+1accel"

SEEDS = (1, 2, 3)

#: the fixed workload behind the floor: small canonical keys, zipf
#: skew (a hot set the accelerator's key memory holds), GET-heavy
#: (the service layer's YCSB-B-style 10% write split)
BASE = dict(
    num_keys=8_000, measure_ops=1_500, frontend="stlt",
    distribution="zipf", num_cores=2, nodes=3, replicas=1,
    offered_load=2.0, net_rtt_cycles=300.0,
)


def _run(seed: int, node_types: str) -> dict:
    spec = None if node_types == HOMOGENEOUS else node_types
    config = RunConfig(**BASE, seed=seed, node_types=spec)
    return run_cluster(config).cluster


def measure_seed(seed: int) -> dict:
    homog = _run(seed, HOMOGENEOUS)
    mixed = _run(seed, MIXED)
    hetero = mixed["hetero"]
    homog_cost = fleet_cost(parse_node_types(HOMOGENEOUS))
    raw = mixed["achieved_throughput"] / homog["achieved_throughput"]
    cost_normalized = raw * homog_cost / hetero["fleet_cost_units"]
    return {
        "seed": seed,
        "requests": mixed["requests"],
        "homogeneous_throughput": homog["achieved_throughput"],
        "mixed_throughput": mixed["achieved_throughput"],
        "raw_speedup": round(raw, 4),
        "cost_normalized_speedup": round(cost_normalized, 4),
        "fleet_cost_units": hetero["fleet_cost_units"],
        "accel_hit_fraction": hetero["accel_hit_fraction"],
        "fallback_rate": hetero["fallback_rate"],
        "fallbacks": hetero["fallbacks"],
        "capability_violations": hetero["capability_violations"],
        "oracle_violations": mixed["oracle_violations"],
    }


def run_bench(smoke_only: bool = False) -> dict:
    seeds: List[dict] = []
    for seed in SEEDS:
        seeds.append(measure_seed(seed))
        row = seeds[-1]
        print(f"seed {seed}: raw={row['raw_speedup']:.2f}x  "
              f"cost-norm={row['cost_normalized_speedup']:.2f}x  "
              f"hit={row['accel_hit_fraction']:.1%} "
              f"fallback={row['fallback_rate']:.1%}  "
              f"violations={row['capability_violations']}")
        if smoke_only:
            break
    worst = min(row["cost_normalized_speedup"] for row in seeds)
    ratios = [row["cost_normalized_speedup"] for row in seeds]
    return {
        "benchmark": "hetero",
        "floor": COST_FLOOR,
        "fleets": [HOMOGENEOUS, MIXED],
        "worst_cost_normalized_speedup": worst,
        "mean_cost_normalized_speedup": round(
            sum(ratios) / len(ratios), 4),
        "seeds": seeds,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def check_floor(payload: dict) -> None:
    for row in payload["seeds"]:
        if row["accel_hit_fraction"] <= 0:
            raise AssertionError(
                f"precondition failed: seed {row['seed']}'s accelerator "
                f"served no GET hit, so the cost ratio would credit a "
                f"node that never accelerated a lookup; give the mixed "
                f"fleet an accelerator that owns hot slots")
    worst = payload["worst_cost_normalized_speedup"]
    if worst < payload["floor"]:
        raise AssertionError(
            f"hetero cost efficiency regressed: worst-case "
            f"{worst:.2f}x throughput per cost unit vs the "
            f"homogeneous fleet, below the pinned "
            f"{payload['floor']:.1f}x floor")
    for row in payload["seeds"]:
        if row["capability_violations"]:
            raise AssertionError(
                f"seed {row['seed']}: {row['capability_violations']} "
                f"capability oracle violation(s) recorded")
        if row["oracle_violations"]:
            raise AssertionError(
                f"seed {row['seed']}: {row['oracle_violations']} "
                f"routing oracle violation(s) recorded")


def test_hetero_cost_floor():
    """Pytest entry: one seed must hold the pinned floor."""
    payload = run_bench(smoke_only=True)
    check_floor(payload)


def main(argv: List[str]) -> int:
    smoke_only = "--smoke" in argv
    payload = run_bench(smoke_only=smoke_only)
    if not smoke_only:
        OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {OUT_PATH}")
    try:
        check_floor(payload)
    except AssertionError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    print(f"ok: worst cost-normalized speedup "
          f"{payload['worst_cost_normalized_speedup']:.2f}x >= "
          f"{COST_FLOOR:.1f}x floor (mean "
          f"{payload['mean_cost_normalized_speedup']:.2f}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
