"""Extension: cluster failover — availability under a scripted crash.

The paper's address-centric thesis at fleet scale (DESIGN.md section
13): when a primary crashes, a replica is promoted and every cached
route naming the dead node is *stale by epoch* — it dies by a MOVED
validation (lazy repair) or an eager broadcast push, never by a wrong
answer.  This benchmark runs the same seeded 3-node workload three
ways — fault-free, a scripted crash+restart healed lazily, and the
same plan healed eagerly — and pins the robustness headline:

* **availability floor** — at least :data:`AVAILABILITY_FLOOR` of the
  fault run's requests still complete within the *fault-free* run's
  p99 (the CDF of the fault-run latency histogram probed at the quiet
  p99).  A scripted crash of one of three nodes may cost the tail, not
  the service;
* **the oracle verdict** — zero failover violations (every acked write
  with a live replica at ack time survived; the run would have raised
  :class:`~repro.errors.FailoverError` otherwise) and, with a replica
  configured, zero acked-write losses;
* **lazy vs eager repair** — the measurable A/B behind the
  ``repair_policy`` knob: the recorded p99 delta and the
  post-promotion MOVED counts (lazy pays redirects, eager pays route
  pushes and shows zero).

Sizes are pinned, not env-scaled: an availability floor is only
meaningful against one fixed workload.

Emits ``BENCH_failover.json`` at the repo root and **fails** (exit 1 /
assertion) if availability drops below the floor or the oracle records
a violation.  It checks first that every seed and policy promoted at
least one replica: a run that never fails a primary over measures no
failover, whatever its availability.  CI runs the single-seed form as
the failover-smoke job.

Usage::

    PYTHONPATH=src python -m benchmarks.bench_ext_failover          # full
    PYTHONPATH=src python -m benchmarks.bench_ext_failover --smoke  # 1 seed
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path
from typing import List, Tuple

from repro.sim.config import RunConfig
from repro.cluster.service import run_cluster
from repro.svc.histogram import LatencyHistogram

#: the pinned floor: this fraction of the fault run's requests must
#: meet the fault-free run's p99 (the ISSUE's acceptance criterion)
AVAILABILITY_FLOOR = 0.90

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_failover.json"

#: the scripted outage: one of three nodes crashes mid-run and rejoins
#: a 3%-of-the-run outage window later
FAULT_PLAN = ("crash:node=1,at=0.50", "restart:node=1,at=0.53")

SEEDS = (1, 2, 3)

#: the fixed workload behind the floor (see module docstring)
BASE = dict(
    num_keys=6_000, measure_ops=1_200, frontend="stlt",
    distribution="uniform", num_cores=2, nodes=3, replicas=1,
    offered_load=0.4, net_rtt_cycles=300.0,
    failover_detect_cycles=2_000.0, cluster_timeout=4.0,
)


def _run(seed: int, plan: Tuple[str, ...] = (),
         policy: str = "lazy") -> dict:
    config = RunConfig(**BASE, seed=seed, node_fault_plan=plan,
                       repair_policy=policy)
    return run_cluster(config).cluster


def measure_seed(seed: int) -> dict:
    quiet = _run(seed)
    quiet_p99 = quiet["latency"]["p99"]
    out = {"seed": seed, "quiet_p99": quiet_p99,
           "requests": quiet["requests"]}
    for policy in ("lazy", "eager"):
        cluster = _run(seed, plan=FAULT_PLAN, policy=policy)
        hist = LatencyHistogram.from_dict(cluster["histogram"])
        failover = cluster["failover"]
        out[policy] = {
            "availability": round(hist.fraction_at_or_below(quiet_p99), 4),
            "p99": cluster["latency"]["p99"],
            "p99_inflation": round(
                cluster["latency"]["p99"] / quiet_p99, 3),
            "failed_requests": cluster["failed_requests"],
            "timeouts": cluster["resilience"]["timeouts"],
            "promotions": failover["promotions"],
            "post_promotion_moved": failover["post_promotion_moved"],
            "eager_repairs": cluster["eager_repairs"],
            "writes": cluster["writes"],
            "acked_writes": cluster["acked_writes"],
            "acked_write_losses": cluster["acked_write_losses"],
            "failover_violations": cluster["failover_violations"],
        }
    out["lazy_vs_eager_p99_delta"] = round(
        (out["eager"]["p99"] - out["lazy"]["p99"]) / out["lazy"]["p99"], 4)
    return out


def run_bench(smoke_only: bool = False) -> dict:
    seeds: List[dict] = []
    for seed in SEEDS:
        seeds.append(measure_seed(seed))
        row = seeds[-1]
        print(f"seed {seed}: quiet p99={row['quiet_p99']:.0f}  "
              f"lazy avail={row['lazy']['availability']:.1%} "
              f"p99={row['lazy']['p99']:.0f}  "
              f"eager avail={row['eager']['availability']:.1%} "
              f"p99={row['eager']['p99']:.0f}  "
              f"delta={row['lazy_vs_eager_p99_delta']:+.1%}")
        if smoke_only:
            break
    worst = min(min(row["lazy"]["availability"],
                    row["eager"]["availability"]) for row in seeds)
    deltas = [row["lazy_vs_eager_p99_delta"] for row in seeds]
    return {
        "benchmark": "failover",
        "floor": AVAILABILITY_FLOOR,
        "fault_plan": list(FAULT_PLAN),
        "worst_availability": worst,
        "lazy_vs_eager_p99_delta_mean": round(
            sum(deltas) / len(deltas), 4),
        "seeds": seeds,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def check_floor(payload: dict) -> None:
    for row in payload["seeds"]:
        for policy in ("lazy", "eager"):
            if row[policy]["promotions"] < 1:
                raise AssertionError(
                    f"precondition failed: seed {row['seed']} {policy} "
                    f"promoted no replica, so the run never failed a "
                    f"primary over and its availability says nothing "
                    f"about failover; script a crash that outlasts "
                    f"the detection window")
    worst = payload["worst_availability"]
    if worst < payload["floor"]:
        raise AssertionError(
            f"failover availability regressed: worst-case "
            f"{worst:.1%} of fault-run requests met the quiet p99, "
            f"below the pinned {payload['floor']:.0%} floor")
    for row in payload["seeds"]:
        for policy in ("lazy", "eager"):
            if row[policy]["failover_violations"]:
                raise AssertionError(
                    f"seed {row['seed']} {policy}: "
                    f"{row[policy]['failover_violations']} failover "
                    f"oracle violation(s) recorded")
            if row[policy]["acked_write_losses"]:
                raise AssertionError(
                    f"seed {row['seed']} {policy}: "
                    f"{row[policy]['acked_write_losses']} acked "
                    f"write(s) lost despite a configured replica")


def test_failover_availability_floor():
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
    print(f"ok: worst availability "
          f"{payload['worst_availability']:.1%} >= "
          f"{AVAILABILITY_FLOOR:.0%} floor; lazy->eager p99 delta "
          f"{payload['lazy_vs_eager_p99_delta_mean']:+.1%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
