"""The five workloads: configs per scale, how to run them, what to check.

Every workload is a pure function of ``(scale, seed)``: the seed goes
into :class:`~repro.sim.config.RunConfig` (cluster runs derive every
overlay stream from it), and the simulator receives nothing else.

Scales share the mechanism and differ in length:

* ``full``  — the timed size (1.5-3.5 CPU seconds per run), so a
  time-boxed run takes the median of several runs.  Every open-loop
  workload records at least 40k request latencies, which leaves 400
  samples beyond p99;
* ``smoke`` — seconds-long sizes for the cross-mode check and tests.
  The key counts stay large enough that every precondition still fires.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Tuple

from repro.cluster.service import run_cluster
from repro.sim.config import RunConfig
from repro.sim.engine import Engine
from repro.sim.results import RunResult

_FIG11 = dict(program="redis", distribution="zipf", value_size=64,
              exec_mode="batched")
_HOT = dict(program="unordered_map", frontend="stlt", distribution="zipf",
            exec_mode="batched")
_CHURN = dict(program="unordered_map", frontend="stlt",
              distribution="latest", num_cores=2, churn_rate=0.005,
              arrival_process="poisson", offered_load=0.8,
              dispatch_policy="jsq", exec_mode="reference")
_FLEET = dict(program="unordered_map", frontend="stlt", num_keys=4_000,
              measure_ops=2_000, warmup_ops=2_000, exec_mode="batched",
              nodes=8, replicas=1, net_rtt_cycles=300.0,
              arrival_process="poisson", cluster_timeout=8.0)
_FAILOVER = dict(_FLEET, offered_load=0.5,
                 node_fault_plan=("crash:node=1,at=0.4",
                                  "restart:node=1,at=0.8"))
# no faults: the mixed fleet loses acked writes under the failover plan
# (README, "Problems found while sizing")
_HETERO = dict(_FLEET, offered_load=0.15, node_types="6full+2accel")

_SIZES: Dict[str, Dict[str, dict]] = {
    "fig11": {
        "smoke": dict(num_keys=10_000, measure_ops=500, warmup_ops=1_000),
        "full": dict(num_keys=20_000, measure_ops=2_000, warmup_ops=4_000),
    },
    "hot": {
        "smoke": dict(num_keys=2_000, measure_ops=2_000,
                      warmup_ops=10_000),
        "full": dict(num_keys=2_000, measure_ops=30_000,
                     warmup_ops=60_000),
    },
    "churn": {
        # 2 cores x 20k measured requests keep 400 samples beyond p99
        "smoke": dict(num_keys=4_000, measure_ops=20_000, warmup_ops=1_000),
        "full": dict(num_keys=8_000, measure_ops=20_000, warmup_ops=2_000),
    },
    "failover": {
        "smoke": dict(service_requests=40_000),
        "full": dict(service_requests=45_000),
    },
    "hetero": {
        "smoke": dict(service_requests=40_000),
        "full": dict(service_requests=45_000),
    },
}

_BASES = {"fig11": _FIG11, "hot": _HOT, "churn": _CHURN,
          "failover": _FAILOVER, "hetero": _HETERO}


def configs(workload: str, scale: str, seed: int,
            exec_mode: Optional[str] = None) -> Dict[str, RunConfig]:
    """The run configs of one workload, keyed by role."""
    fields = dict(_BASES[workload], **_SIZES[workload][scale], seed=seed)
    if exec_mode is not None:
        fields["exec_mode"] = exec_mode
    if workload == "fig11":
        return {"baseline": RunConfig(frontend="baseline", **fields),
                "stlt": RunConfig(frontend="stlt", **fields)}
    return {"run": RunConfig(**fields)}


def describe(config: RunConfig) -> dict:
    """The fields a config sets away from the RunConfig defaults."""
    default = RunConfig().to_dict()
    return {k: v for k, v in config.to_dict().items()
            if k != "machine" and default[k] != v}


# ----------------------------------------------------------------------
# running
# ----------------------------------------------------------------------

def engine_ops(cfgs: Dict[str, RunConfig]) -> int:
    """Simulated ops the workload's engines execute (warm-up included;
    a cluster runs one engine per full node)."""
    total = 0
    for config in cfgs.values():
        engines = 1
        if config.cluster_enabled:
            classes = config.node_classes
            engines = config.nodes if classes is None \
                else classes.count("full")
        total += engines * config.total_ops * config.num_cores
    return total


def attempted(cfgs: Dict[str, RunConfig]) -> int:
    """Simulated ops (cluster: overlay requests) a run attempts."""
    config = next(iter(cfgs.values()))
    if config.cluster_enabled:
        return config.effective_cluster_requests
    return engine_ops(cfgs)


class Outcome:
    """What one workload run produced."""

    def __init__(self, workload: str, cfgs: Dict[str, RunConfig],
                 results: Dict[str, RunResult],
                 gets_executed: Optional[int] = None,
                 oracle_checks: Optional[int] = None) -> None:
        self.workload = workload
        self.cfgs = cfgs
        self.results = results
        #: churn only: GETs executed and stale-translation oracle checks
        self.gets_executed = gets_executed
        self.oracle_checks = oracle_checks

    @property
    def primary(self) -> RunResult:
        """The result the per-layer counts describe (fig11: STLT)."""
        return self.results.get("stlt") or self.results["run"]

    @property
    def cluster(self) -> Optional[dict]:
        return self.primary.cluster

    @property
    def failed(self) -> int:
        """Simulated requests that exhausted every retry."""
        if self.cluster is not None:
            return self.cluster["failed_requests"]
        return 0

    def digest(self) -> str:
        """SHA-256 of the canonical JSON of every result."""
        canonical = json.dumps(
            {role: r.to_dict() for role, r in self.results.items()},
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def run(workload: str, cfgs: Dict[str, RunConfig]) -> Outcome:
    """Execute one workload in this process."""
    if workload in ("failover", "hetero"):
        return Outcome(workload, cfgs, {"run": run_cluster(cfgs["run"])})
    results = {}
    gets = checks = None
    for role, config in cfgs.items():
        engine = Engine(config)
        results[role] = engine.run()
        if config.chaos_enabled:
            gets = sum(f.gets for f in engine.frontends)
            checks = engine.oracle.checks
    return Outcome(workload, cfgs, results, gets_executed=gets,
                   oracle_checks=checks)


# ----------------------------------------------------------------------
# simulated metrics
# ----------------------------------------------------------------------

def sim_metrics(outcome: Outcome) -> Dict[str, float]:
    """The simulated end-to-end metrics that apply to the workload."""
    out: Dict[str, float] = {
        "failed_frac": outcome.failed / attempted(outcome.cfgs)}
    primary = outcome.primary
    latency = None
    if outcome.cluster is not None:
        latency = outcome.cluster["latency"]
    else:
        out["sim_cycles_per_op"] = primary.cycles_per_op
        if primary.service is not None:
            latency = primary.service["latency"]
    if "baseline" in outcome.results:
        out["sim_speedup"] = (outcome.results["baseline"].cycles_per_op
                              / primary.cycles_per_op)
    if latency is not None:
        out["sim_p50_cycles"] = latency["p50"]
        out["sim_p99_cycles"] = latency["p99"]
    return out


# ----------------------------------------------------------------------
# preconditions: each workload proves the mechanism it exists for fired
# ----------------------------------------------------------------------

Check = Tuple[str, bool, str]


def _check(name: str, ok: bool, detail: str) -> Check:
    return (name, bool(ok), detail)


def _tail_check(histogram: dict) -> Check:
    """An open-loop p99 needs 400 samples beyond it to be steady."""
    beyond = histogram["count"] // 100
    return _check(">= 400 latency samples beyond p99", beyond >= 400,
                  f"{histogram['count']} samples")


def _cluster_checks(c: dict) -> List[Check]:
    achieved = c["achieved_throughput"] / c["arrival_rate"]
    busiest = max(n["busy_fraction"] for n in c["per_node"])
    return [
        _tail_check(c["histogram"]),
        _check("achieved >= 0.98 x arrival rate", achieved >= 0.98,
               f"achieved/arrival = {achieved:.4f}"),
        _check("busiest node < 0.85 busy", busiest < 0.85,
               f"max busy_fraction = {busiest:.4f}"),
    ]


def preconditions(outcome: Outcome) -> List[Check]:
    w = outcome.workload
    r = outcome.primary
    if w == "fig11":
        base = outcome.results["baseline"]
        speedup = base.cycles_per_op / r.cycles_per_op
        return [
            _check("baseline page_walks > 0", base.page_walks > 0,
                   f"page_walks = {base.page_walks}"),
            _check("STLT fast_miss_rate < 0.05",
                   r.fast_miss_rate is not None and r.fast_miss_rate < 0.05,
                   f"fast_miss_rate = {r.fast_miss_rate}"),
            _check("sim_speedup > 1", speedup > 1.0,
                   f"sim_speedup = {speedup:.4f}"),
        ]
    if w == "hot":
        per_op = r.page_walks / r.ops
        return [_check("measured walks <= 0.001/op", per_op <= 0.001,
                       f"{r.page_walks} walks / {r.ops} ops")]
    if w == "churn":
        events = sum(r.chaos["events"].values())
        ipb = r.chaos["ipb"]["inserts"]
        return [
            _check("chaos events > 0", events > 0, f"events = {events}"),
            _check("SETs > 0", r.sets > 0, f"measured sets = {r.sets}"),
            _check("IPB inserts > 0", ipb > 0, f"ipb inserts = {ipb}"),
            _check("oracle checks == GETs executed",
                   outcome.oracle_checks == outcome.gets_executed,
                   f"checks = {outcome.oracle_checks}, "
                   f"gets = {outcome.gets_executed}"),
            _tail_check(r.service["histogram"]),
        ]
    c = outcome.cluster
    if w == "failover":
        promotions = c["failover"]["promotions"]
        frac = c["failed_requests"] / c["requests"]
        return [
            _check("exactly 1 promotion", promotions == 1,
                   f"promotions = {promotions}"),
            _check("0 acked-write violations",
                   c["failover_violations"] == 0,
                   f"failover_violations = {c['failover_violations']}"),
            _check("0 < failed_frac < 0.01", 0.0 < frac < 0.01,
                   f"failed_frac = {frac:.6f}"),
        ] + _cluster_checks(c)
    h = c["hetero"]
    return [
        _check("accel_hit_fraction > 0", h["accel_hit_fraction"] > 0,
               f"accel_hit_fraction = {h['accel_hit_fraction']:.4f}"),
        _check("0 capability violations", h["capability_violations"] == 0,
               f"capability_violations = {h['capability_violations']}"),
    ] + _cluster_checks(c)


# ----------------------------------------------------------------------
# per-layer simulated counts
# ----------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_counts(outcome: Outcome) -> Dict[str, float]:
    """Per-layer counts the simulator itself reports (0 where a layer
    does not take part in the workload)."""
    r = outcome.primary
    mem = r.mem
    chaos = r.chaos or {}
    service = r.service or {}
    c = outcome.cluster or {}
    hetero = c.get("hetero") or {}
    per_core = service.get("per_core", [])
    return {
        "kvs.index_cycles_per_op": _ratio(r.attr.get("index", 0), r.ops),
        "mem.page_walks": mem.page_walks,
        "mem.stlb_misses": mem.stlb_misses,
        "mem.l3_misses": mem.l3_misses,
        "mem.dram_queue_cycles": mem.dram_queue_cycles,
        "mem.translation_cycles_per_op": _ratio(
            r.attr.get("translation", 0), r.ops),
        "core.stlt_miss_rate": r.fast_miss_rate or 0.0,
        "core.stb_hit_ratio": _ratio(mem.stb_hits,
                                     mem.stb_hits + mem.stb_misses),
        "core.ipb_inserts": (chaos.get("ipb") or {}).get("inserts", 0),
        "core.rows_scrubbed": chaos.get("stlt_rows_scrubbed", 0),
        "sim.ops": engine_ops(outcome.cfgs),
        "chaos.events": sum(chaos.get("events", {}).values()),
        "chaos.oracle_checks": chaos.get("oracle", {}).get("checks", 0),
        "chaos.oracle_violations": chaos.get("oracle", {}).get(
            "violations", 0),
        "svc.requests": service.get("requests", 0),
        "svc.max_queue_depth": max(
            (p["max_queue_depth"] for p in per_core), default=0),
        "svc.busy_fraction_max": max(
            (p["busy_fraction"] for p in per_core), default=0.0),
        "cluster.requests": c.get("requests", 0),
        "cluster.route_hit_ratio": _ratio(
            c.get("route_hits", 0),
            c.get("route_hits", 0) + c.get("route_stale_hits", 0)
            + c.get("route_misses", 0)),
        "cluster.moved_redirects": c.get("moved_redirects", 0),
        "cluster.retries": (c.get("resilience") or {}).get("timeouts", 0),
        "cluster.failed_requests": c.get("failed_requests", 0),
        "cluster.promotions": (c.get("failover") or {}).get(
            "promotions", 0),
        "cluster.net_wait_cycles": c.get("network", {}).get(
            "link_wait_cycles", 0),
        "cluster.busy_fraction_max": max(
            (n["busy_fraction"] for n in c.get("per_node", [])),
            default=0.0),
        "hetero.installs": sum(a["installs"]
                               for a in hetero.get("per_accel", [])),
        "hetero.accel_hit_fraction": hetero.get("accel_hit_fraction", 0.0),
        "hetero.fallback_rate": hetero.get("fallback_rate", 0.0),
        "hetero.capability_violations": hetero.get(
            "capability_violations", 0),
    }


def cross_mode(workload: str, seed: int) -> Dict[str, str]:
    """``sim_digest`` of the smoke-scale workload in both timed modes."""
    return {mode: run(workload, configs(workload, "smoke", seed,
                                        exec_mode=mode)).digest()
            for mode in ("reference", "batched")}
