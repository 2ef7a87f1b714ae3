"""Turn stored sweep records into the paper-vs-measured tables.

Every table re-hydrates each durable store record's ``result`` into a
:class:`~repro.sim.results.RunResult` once and reads its properties
and blocks, so a table reads the same numbers whether a run was
simulated now, pulled from the store, or computed by a worker.
Speedups and reductions come from :func:`~repro.sim.results.speedup`
and :func:`~repro.sim.results.reduction`.

:func:`summary_table` and :func:`speedup_table` render
:func:`~repro.sim.results.format_table` ASCII tables for the ``repro
sweep`` CLI: one row per run, and speedups of every front-end against
the matching baseline run.  A table with nothing to show is ``""``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..sim.results import RunResult, format_table, reduction, speedup
from ..svc.histogram import LatencyHistogram
from .spec import ACCEL_SWEEP_DESIGNS

__all__ = ["summary_table", "speedup_table", "scaling_table",
           "latency_table", "churn_table", "cluster_table", "accel_table",
           "failover_table", "hetero_table", "sweep_summary"]


def summary_table(report) -> str:
    """One row per sweep outcome: status, cycles/op, misses, wall time."""
    rows: List[List[str]] = []
    for outcome in report:
        result = outcome.result
        if result is not None:
            cpo = f"{result.cycles_per_op:.1f}"
            tlb = str(result.tlb_misses)
            miss = ("-" if result.fast_miss_rate is None
                    else f"{result.fast_miss_rate:.2%}")
        else:
            cpo = tlb = miss = "-"
        rows.append([
            outcome.label,
            outcome.status,
            cpo,
            tlb,
            miss,
            f"{outcome.wall_time:.2f}s" if outcome.wall_time else "-",
        ])
    return format_table(
        ["run", "status", "cycles/op", "TLB misses", "table miss", "wall"],
        rows)


def scaling_table(records: Iterable[dict]) -> str:
    """Core-count scalability: throughput, fairness, per-core hit rates.

    Renders one row per multi-core-relevant record (any record when the
    sweep contains at least one ``num_cores > 1`` run), grouped by
    (program, workload, frontend) and sorted by core count so the
    scaling trend reads top to bottom.  Each run scales against the
    one-core run of the same workload (the :func:`speedup_table`
    grouping key without the core count) and front-end.  The workload
    column (:func:`_workload`) tells apart rows that share a program,
    front-end and core count.  The per-core column shows each
    core's shared-fast-table hit rate from the aggregate's per-core
    payloads.  Cluster records are :func:`cluster_table`'s: a fleet's
    aggregate holds one entry per node, not per core.
    """
    relevant = []
    for record in records:
        result = RunResult.from_dict(record["result"])
        if result.cluster is not None:
            continue
        config = record.get("config", {})
        relevant.append((config.get("program"), _workload(config),
                         result.frontend, config.get("num_cores"),
                         _group_key({**config, "num_cores": None}),
                         result))
    if not any(cores > 1 for _, _, _, cores, _, _ in relevant):
        return ""

    singles = {(group, frontend): result.throughput
               for _, _, frontend, cores, group, result in relevant
               if cores == 1 and result.throughput}
    rows: List[List[str]] = []
    for program, workload, frontend, cores, group, result in sorted(
            relevant, key=lambda r: (str(r[0]), r[1], str(r[2]), r[3])):
        single = singles.get((group, frontend))
        scaling = (f"{result.throughput / single:.2f}x"
                   if single else "-")
        fairness = result.fairness
        per_core = []
        for core in result.per_core_results():
            if core.fast_miss_rate is None:
                per_core = []
                break
            per_core.append(f"{1.0 - core.fast_miss_rate:.0%}")
        rows.append([
            str(program),
            workload,
            str(frontend),
            str(cores),
            f"{result.throughput:.4f}",
            scaling,
            "-" if fairness is None else f"{fairness:.3f}",
            f"{result.mem.dram_busy_fraction:.1%}",
            "/".join(per_core) if per_core else "-",
        ])
    return format_table(
        ["program", "workload", "frontend", "cores", "ops/cycle",
         "scaling", "fairness", "DRAM busy", "table hits/core"],
        rows)


def _workload(config: dict, churn: bool = True) -> str:
    """A row's workload beside its program, front-end and core count:
    key distribution, value size and key count, then the open-loop
    arrival process and load, the churn rate (unless ``churn`` is
    False: the churn table has its own column) and the fault plan when
    set, in the suffixes of ``RunConfig.label``."""
    text = (f"{config.get('distribution')}-{config.get('value_size')}B"
            f"-{config.get('num_keys')}keys")
    if config.get("arrival_process", "closed") != "closed":
        text += (f"@{config.get('arrival_process')}"
                 f"-{config.get('offered_load'):g}")
    if churn and config.get("churn_rate"):
        text += f"~churn{config['churn_rate']:g}"
    if config.get("fault_plan"):
        text += f"~fault{len(config['fault_plan'])}"
    return text


def _group_key(config: dict) -> Tuple:
    """Workload identity shared by comparable runs (front-end excluded)."""
    return (
        config.get("program"),
        config.get("distribution"),
        config.get("value_size"),
        config.get("num_keys"),
        config.get("measure_ops"),
        config.get("warmup_ops"),
        config.get("num_cores"),
        config.get("arrival_process"),
        config.get("offered_load"),
        config.get("dispatch_policy"),
        # chaos knobs: a baseline under churn only anchors runs under
        # the *same* churn (speedup retention compares like with like)
        config.get("churn_rate"),
        tuple(config.get("fault_plan") or ()),
        # cluster knobs: a baseline only anchors runs in the same
        # cluster regime (node count, network, migration pressure)
        config.get("nodes"),
        config.get("net_rtt_cycles"),
        config.get("migrate_rate"),
        config.get("seed"),
    )


def speedup_table(records: Iterable[dict]) -> str:
    """Paper-style speedups: every run vs the matching baseline run.

    Records are grouped by workload identity (program, distribution,
    sizes, seed); within each group the ``baseline`` front-end anchors
    the ratio, and each accelerated run becomes one row.  Groups without
    a baseline are skipped (nothing to normalise against).
    """
    groups: Dict[Tuple, Dict[str, List[Tuple[str, RunResult]]]] = {}
    for record in records:
        config = record.get("config", {})
        group = groups.setdefault(_group_key(config), {})
        group.setdefault(config.get("frontend", "?"), []).append(
            (record.get("label", ""),
             RunResult.from_dict(record["result"])))

    rows: List[List[str]] = []
    for key in sorted(groups, key=repr):
        group = groups[key]
        baselines = group.get("baseline")
        if not baselines:
            continue
        base = baselines[0][1]
        program = key[0]
        for frontend in sorted(group):
            if frontend == "baseline":
                continue
            for label, result in group[frontend]:
                rows.append([
                    str(program),
                    label,
                    f"{result.cycles_per_op:.1f}",
                    f"{speedup(base, result):.2f}x",
                ])
    if not rows:
        return ""
    return format_table(["program", "run", "cycles/op", "speedup"], rows)


def accel_table(records: Iterable[dict]) -> str:
    """The five-design translation-accel head-to-head.

    One row per design per workload group: cycles/op, speedup against
    the unaccelerated baseline of the *same* seeded workload, the
    page-walk and L2-TLB-miss reductions (the translation story), the
    design's own telemetry hit count (STLT fast hits surface through
    ``fast_miss_rate``; victima/pcax report probe hits; revelator
    correct speculations), and the oracle verdict — every design runs
    with the stale-translation oracle armed, so "OK" means zero stale
    reads, not "unchecked".
    """
    groups: Dict[Tuple, Dict[str, RunResult]] = {}
    for record in records:
        config = record.get("config", {})
        design = config.get("frontend")
        if design not in ACCEL_SWEEP_DESIGNS:
            continue
        groups.setdefault(_group_key(config), {})[design] = \
            RunResult.from_dict(record["result"])

    rows: List[List[str]] = []
    for key in sorted(groups, key=repr):
        group = groups[key]
        base = group.get("baseline")
        if base is None:
            continue
        if group.keys() <= {"baseline", "stlt"}:
            # without a rival design this is the plain speedup table
            continue
        for design in ACCEL_SWEEP_DESIGNS:
            result = group.get(design)
            if result is None:
                continue
            walks = reduction(base.page_walks, result.page_walks)
            tlb = reduction(base.tlb_misses, result.tlb_misses)
            accel = result.accel or {}
            if design == "stlt":
                fmr = result.fast_miss_rate
                hits = ("-" if fmr is None
                        else f"fast hit {1.0 - fmr:.0%}")
            elif design == "revelator":
                hits = (f"spec {accel.get('spec_hits', 0)}/"
                        f"{accel.get('spec_misses', 0)}mis")
            elif accel:
                hits = f"hits {accel.get('hits', 0)}"
            else:
                hits = "-"
            violations = _oracle_violations(result)
            oracle = "OK" if not violations else f"{violations} VIOLATIONS"
            rows.append([
                str(key[0]),
                design,
                f"{result.cycles_per_op:.1f}",
                f"{speedup(base, result):.2f}x",
                f"{walks:+.0%}",
                f"{tlb:+.0%}",
                hits,
                oracle,
            ])
    if not rows:
        return ""
    return format_table(
        ["program", "design", "cycles/op", "speedup", "walks",
         "stlb miss", "telemetry", "oracle"],
        rows)


def _oracle_violations(result: RunResult) -> Optional[int]:
    """The stale-translation oracle's violations; None without churn."""
    return result.chaos["oracle"]["violations"] if result.chaos else None


def latency_table(records: Iterable[dict]) -> str:
    """Throughput-latency curves from open-loop (service-layer) records.

    One row per record carrying a ``service`` payload, grouped by
    (program, frontend) and sorted by offered load so each curve reads
    top to bottom: offered vs achieved rate (ops/cycle), the latency
    percentiles, and the worst per-core queue depth.  The superlinear
    rise of p99 towards saturation — the paper's "tail at capacity"
    story — is visible directly in the column.
    """
    rows_in = []
    for record in records:
        service = RunResult.from_dict(record["result"]).service
        if not service:
            continue
        config = record.get("config", {})
        rows_in.append((config.get("program"), config.get("frontend"),
                        service))
    if not rows_in:
        return ""

    rows: List[List[str]] = []
    for program, frontend, service in sorted(
            rows_in,
            key=lambda r: (str(r[0]), str(r[1]),
                           r[2].get("offered_load", 0.0))):
        latency = service.get("latency", {})
        max_depth = max(
            (core.get("max_queue_depth", 0)
             for core in service.get("per_core", [])),
            default=0)
        rows.append([
            str(program),
            str(frontend),
            f"{service.get('process')}/{service.get('dispatch')}",
            f"{service.get('offered_load', 0.0):.2f}",
            f"{service.get('arrival_rate', 0.0):.5f}",
            f"{service.get('achieved_throughput', 0.0):.5f}",
            f"{latency.get('p50', 0.0):.0f}",
            f"{latency.get('p99', 0.0):.0f}",
            f"{latency.get('p999', 0.0):.0f}",
            str(max_depth),
        ])
    return format_table(
        ["program", "frontend", "traffic", "load", "offered",
         "achieved", "p50", "p99", "p99.9", "max depth"],
        rows)


def churn_table(records: Iterable[dict]) -> str:
    """Speedup retention under OS churn (the paper's robustness story).

    Groups records by workload (the :func:`speedup_table` grouping key
    without the churn rate) and churn intensity, and renders one row
    per (workload, churn_rate) of every workload with a churned run:
    baseline and accelerated cycles/op, the
    speedup at that intensity, and *retention* — the speedup divided by
    the quiet (churn 0) speedup of the same workload, i.e. how much of
    the acceleration survives the disturbance.  Coherence-machinery
    telemetry (IPB overflows, STLT rows scrubbed, oracle verdict) rides
    along so a degradation is attributable at a glance.
    """
    by_cell: Dict[Tuple, Dict[str, RunResult]] = {}
    #: group key -> the workload column's text
    names: Dict[Tuple, str] = {}
    for record in records:
        config = record.get("config", {})
        rate = config.get("churn_rate")
        if rate is None:
            continue
        workload = _group_key({**config, "churn_rate": None})
        names[workload] = _workload(config, churn=False)
        cell = by_cell.setdefault((workload, rate), {})
        cell[config.get("frontend", "?")] = \
            RunResult.from_dict(record["result"])
    churned = {workload for workload, rate in by_cell if rate > 0}
    if not churned:
        return ""

    # quiet-run speedups anchor the retention column
    quiet: Dict[Tuple, float] = {}
    for (workload, rate), cell in by_cell.items():
        if rate != 0 or "baseline" not in cell:
            continue
        for frontend, accel in cell.items():
            if frontend != "baseline" and accel.cycles_per_op:
                quiet[(workload, frontend)] = speedup(cell["baseline"],
                                                      accel)

    rows: List[List[str]] = []
    for (workload, rate) in sorted(
            by_cell, key=lambda k: (str(k[0][0]), repr(k[0]), k[1])):
        if workload not in churned:
            continue
        program = workload[0]
        cell = by_cell[(workload, rate)]
        base = cell.get("baseline")
        if base is None:
            continue
        for frontend in sorted(cell):
            if frontend == "baseline":
                continue
            accel = cell[frontend]
            ratio = speedup(base, accel)
            anchor = quiet.get((workload, frontend))
            retention = f"{ratio / anchor:.0%}" if anchor else "-"
            violations = _oracle_violations(accel)
            oracle = ("-" if violations is None
                      else ("OK" if violations == 0 else
                            f"{violations} VIOLATIONS"))
            chaos = accel.chaos or {}
            rows.append([
                str(program),
                names[workload],
                str(frontend),
                f"{rate:g}",
                f"{base.cycles_per_op:.1f}",
                f"{accel.cycles_per_op:.1f}",
                f"{ratio:.2f}x",
                retention,
                str(chaos.get("ipb_overflows", 0)),
                str(chaos.get("stlt_rows_scrubbed", 0)),
                oracle,
            ])
    if not rows:
        return ""
    return format_table(
        ["program", "workload", "frontend", "churn", "base cyc/op",
         "accel cyc/op", "speedup", "retention", "IPB ovfl",
         "rows scrubbed", "oracle"],
        rows)


def cluster_table(records: Iterable[dict]) -> str:
    """Cluster scaling: throughput vs nodes, route-cache economics.

    One row per record carrying a ``cluster`` payload, grouped by
    (program, route-cache setting) and sorted by node count so each
    scaling curve reads top to bottom.  The scaling column normalises
    achieved throughput against the group's nodes=1 anchor (same
    client/network path, one shard); the route columns show the
    address-centric story — cached slot routes served without a MOVED
    bounce, stale routes dying by redirect, never by a wrong answer
    (the oracle column is the proof).
    """
    rows_in = []
    for record in records:
        cluster = RunResult.from_dict(record["result"]).cluster
        if not cluster:
            continue
        config = record.get("config", {})
        rows_in.append((config.get("program"), cluster))
    if not rows_in:
        return ""

    anchors: Dict[Tuple, float] = {}
    for program, cluster in rows_in:
        if cluster.get("nodes") == 1 and cluster.get("achieved_throughput"):
            anchors[(program, cluster.get("route_cache"))] = (
                cluster["achieved_throughput"])

    rows: List[List[str]] = []
    for program, cluster in sorted(
            rows_in,
            key=lambda r: (str(r[0]), not r[1].get("route_cache", True),
                           r[1].get("nodes", 0))):
        anchor = anchors.get((program, cluster.get("route_cache")))
        throughput = cluster.get("achieved_throughput", 0.0)
        scaling = f"{throughput / anchor:.2f}x" if anchor else "-"
        lookups = (cluster.get("route_hits", 0)
                   + cluster.get("route_stale_hits", 0)
                   + cluster.get("route_misses", 0))
        hit_rate = (f"{cluster.get('route_hits', 0) / lookups:.0%}"
                    if lookups else "-")
        latency = cluster.get("latency", {})
        fairness = cluster.get("fairness")
        violations = cluster.get("oracle_violations", 0)
        rows.append([
            str(program),
            str(cluster.get("nodes", "?")),
            "on" if cluster.get("route_cache", True) else "off",
            f"{throughput:.5f}",
            scaling,
            f"{latency.get('p99', 0.0):.0f}",
            "-" if fairness is None else f"{fairness:.3f}",
            hit_rate,
            str(cluster.get("moved_redirects", 0)),
            str(cluster.get("ask_redirects", 0)),
            "OK" if violations == 0 else f"{violations} VIOLATIONS",
        ])
    return format_table(
        ["program", "nodes", "cache", "req/cycle", "scaling", "p99",
         "fairness", "route hits", "MOVED", "ASK", "oracle"],
        rows)


def failover_table(records: Iterable[dict]) -> str:
    """Failover economics: availability under faults, lazy vs eager.

    Groups cluster records by (program, seed); within each group the
    fault-free run anchors the quiet-run p99, and every faulted run
    (one carrying a ``failover`` payload) becomes a row:

    * **avail** — the fraction of the fault run's requests that still
      met the quiet run's p99 (the CDF of the fault-run latency
      histogram probed at the quiet p99) — the availability metric the
      failover benchmark pins a floor under;
    * **vs quiet** — the fault-run p99 as a multiple of the quiet p99
      (tail inflation attributable to the fault plan);
    * **MOVED/promo** — post-promotion redirects per promotion, the
      price of *lazy* route repair (eager broadcast pays route pushes
      instead and shows 0 here);
    * **writes verdict** — the acked-write oracle: ``OK`` means every
      acknowledged write survived; losses (no replica existed) are
      telemetry; violations would have raised :class:`FailoverError`
      at run time and are re-surfaced loudly from archived records.

    A trailing line summarises the lazy-vs-eager p99 delta over seeds
    where both policies ran — the measurable A/B behind the repair-
    policy knob.
    """
    by_group: Dict[Tuple, dict] = {}
    for record in records:
        cluster = RunResult.from_dict(record["result"]).cluster
        if not cluster:
            continue
        config = record.get("config", {})
        key = (config.get("program"), config.get("seed"))
        group = by_group.setdefault(key, {"quiet": None, "faulted": []})
        if cluster.get("failover"):
            group["faulted"].append(cluster)
        elif not config.get("node_fault_plan"):
            group["quiet"] = cluster
    if not any(group["faulted"] for group in by_group.values()):
        return ""

    rows: List[List[str]] = []
    deltas: List[float] = []
    for key in sorted(by_group, key=repr):
        group = by_group[key]
        quiet = group["quiet"]
        base_p99 = quiet["latency"]["p99"] if quiet else None
        p99_by_policy: Dict[str, float] = {}
        for cluster in sorted(
                group["faulted"],
                key=lambda c: c["failover"].get("repair_policy", "")):
            failover = cluster["failover"]
            p99 = cluster["latency"]["p99"]
            hist = LatencyHistogram.from_dict(cluster["histogram"])
            avail = (f"{hist.fraction_at_or_below(base_p99):.1%}"
                     if base_p99 and hist.count else "-")
            inflation = f"{p99 / base_p99:.2f}x" if base_p99 else "-"
            promotions = failover.get("promotions", 0)
            moved = failover.get("post_promotion_moved", 0)
            per_promo = f"{moved / promotions:.1f}" if promotions else "-"
            violations = cluster.get("failover_violations", 0)
            losses = cluster.get("acked_write_losses", 0)
            if violations:
                verdict = f"{violations} VIOLATIONS"
            elif losses:
                verdict = f"{losses} lost (no replica)"
            else:
                verdict = "OK"
            policy = failover.get("repair_policy", "?")
            p99_by_policy[policy] = p99
            rows.append([
                str(key[0]),
                str(key[1]),
                policy,
                str(promotions),
                avail,
                f"{p99:.0f}",
                inflation,
                per_promo,
                str(cluster.get("failed_requests", 0)),
                f"{cluster.get('acked_writes', 0)}"
                f"/{cluster.get('writes', 0)}",
                verdict,
            ])
        lazy = p99_by_policy.get("lazy")
        eager = p99_by_policy.get("eager")
        if lazy and eager is not None:
            deltas.append((eager - lazy) / lazy)
    table = format_table(
        ["program", "seed", "policy", "promos", "avail", "p99",
         "vs quiet", "MOVED/promo", "failed", "acked", "writes verdict"],
        rows)
    if deltas:
        mean = sum(deltas) / len(deltas)
        table += (f"\nlazy->eager p99 delta: {mean:+.1%} "
                  f"(mean over {len(deltas)} seed(s) with both policies)")
    return table


def hetero_table(records: Iterable[dict]) -> str:
    """Heterogeneous-fleet economics: mixed vs homogeneous fleets.

    Groups cluster records by (program, seed); within each group the
    homogeneous run (no ``hetero`` payload) anchors the reference
    throughput, and every mixed run becomes a row:

    * **hit frac** — accelerator-eligible GETs served on-chip (the
      accelerator's own cache economics);
    * **fallback** — requests an accelerator-owned slot pushed to the
      full-class backer (capacity miss or SET);
    * **speedup** — mixed achieved throughput over the homogeneous
      run's, at *equal node count* (substitution, not extra hardware);
    * **cost-norm** — the same ratio after dividing each side by its
      fleet cost (an accelerator node costs 0.25 full-node units) —
      the headline economics the hetero benchmark pins a floor under;
    * **capab.** — the capability oracle's verdict: a violation would
      have raised :class:`~repro.errors.HeteroError` at run time and
      is re-surfaced loudly from archived records.
    """
    by_group: Dict[Tuple, dict] = {}
    for record in records:
        cluster = RunResult.from_dict(record["result"]).cluster
        if not cluster:
            continue
        config = record.get("config", {})
        key = (config.get("program"), config.get("seed"))
        group = by_group.setdefault(key, {"homog": None, "mixed": []})
        if cluster.get("hetero"):
            group["mixed"].append(cluster)
        else:
            group["homog"] = cluster
    if not any(group["mixed"] for group in by_group.values()):
        return ""

    rows: List[List[str]] = []
    raw_ratios: List[float] = []
    cost_ratios: List[float] = []
    for key in sorted(by_group, key=repr):
        group = by_group[key]
        homog = group["homog"]
        base_tp = homog["achieved_throughput"] if homog else None
        base_cost = float(homog["nodes"]) if homog else None
        for cluster in group["mixed"]:
            hetero = cluster["hetero"]
            tp = cluster["achieved_throughput"]
            cost_tp = hetero.get("cost_normalized_throughput", 0.0)
            raw = tp / base_tp if base_tp else None
            cost = (cost_tp / (base_tp / base_cost)
                    if base_tp and base_cost else None)
            if raw is not None:
                raw_ratios.append(raw)
            if cost is not None:
                cost_ratios.append(cost)
            violations = hetero.get("capability_violations", 0)
            rows.append([
                str(key[0]),
                str(key[1]),
                str(hetero.get("node_types")),
                f"{hetero.get('fleet_cost_units', 0.0):g}",
                f"{tp:.5f}",
                f"{hetero.get('accel_hit_fraction', 0.0):.1%}",
                f"{hetero.get('fallback_rate', 0.0):.1%}",
                f"{raw:.2f}x" if raw is not None else "-",
                f"{cost:.2f}x" if cost is not None else "-",
                "OK" if not violations else f"{violations} VIOLATIONS",
            ])
    table = format_table(
        ["program", "seed", "fleet", "cost", "achieved", "hit frac",
         "fallback", "speedup", "cost-norm", "capab."],
        rows)
    if cost_ratios:
        raw_mean = sum(raw_ratios) / len(raw_ratios)
        cost_mean = sum(cost_ratios) / len(cost_ratios)
        table += (f"\nmixed vs homogeneous: {raw_mean:.2f}x raw, "
                  f"{cost_mean:.2f}x cost-normalized "
                  f"(mean over {len(cost_ratios)} pairing(s))")
    return table


def sweep_summary(report, wall_seconds: float) -> dict:
    """The machine-readable roll-up of one sweep invocation.

    Consumed by ``repro sweep --json``: besides the outcome counters,
    it distinguishes *store hits* (results served from the durable
    store without simulating) from *store misses* (points that had to
    run), and carries the wall-clock seconds of the whole invocation —
    the at-a-glance answer to "how much did the cache save me".
    """
    return {
        "runs": len(report.outcomes),
        "completed": report.completed,
        "cached": report.cached,
        "failed": len(report.failed),
        "store_hits": report.cached,
        "store_misses": report.completed,
        "wall_seconds": wall_seconds,
        "ok": report.ok,
    }

