"""Command-line interface: ``python -m repro ...``.

Seven subcommands:

``run``       simulate one configuration and print its metrics
              (optionally against a baseline run for speedups);
``serve``     open-loop service simulation: requests arrive on their
              own clock (Poisson or bursty MMPP), queue on the cores,
              and report tail latency (p50/p95/p99/p99.9), offered vs
              achieved throughput, and per-core queue depths — with
              optional timeout/retry, hedging, and SLO-fallback
              mitigation;
``chaos``     run a configuration under deterministic OS churn and
              fault injection (page migrations, unmap/remap storms,
              context switches, mid-run STLT resizes) with the
              stale-translation oracle armed, and report the coherence
              telemetry (IPB overflows, scrub work, oracle verdict);
``cluster``   sharded multi-node cluster simulation: every node is a
              full multi-core engine, clients resolve hash slots
              through an address-centric route cache (the cluster-scale
              STLT), and live slot migrations fire ASK/MOVED redirects
              under running traffic — reported with merged tail
              latency, throughput scaling, and route/redirect counts;
``breakdown`` print the Fig. 1-style cycle breakdown of a configuration;
``hwcost``    print the Table I on-chip cost accounting;
``sweep``     run a whole campaign (named sweep or JSON spec file) in
              parallel through :mod:`repro.exp`, with a durable result
              store, per-run retry/timeout, and progress/ETA output
              (``--list`` describes the named campaigns).

``run``, ``serve``, ``chaos``, ``cluster``, and ``breakdown`` accept
``--json`` and then emit the same machine-readable record the sweep
store writes (config + result keyed by the config content hash), so
single runs and campaigns feed the same tooling.

Every :class:`~repro.errors.ReproError` subclass maps to its own exit
code with a one-line message on stderr (no tracebacks for expected
failures): config 2, coherence 3, fault plan 4, STLT misuse 5, KVS 6,
address 7, page fault 8, allocation 9, other repro errors 10,
cluster 11, failover 12, hetero 13.

Examples::

    python -m repro run --program redis --frontend stlt --keys 30000
    python -m repro run --program btree --frontend stlt --compare-baseline
    python -m repro run --json --keys 5000 --ops 1000
    python -m repro serve --frontend stlt --cores 4 --load 0.7 --json
    python -m repro serve --arrival mmpp --dispatch jsq --load 0.9
    python -m repro serve --cores 4 --fault slowdown:core=1,factor=4 \
        --timeout 6 --retries 2 --hedge 4 --fallback
    python -m repro chaos --frontend stlt --churn-rate 0.05
    python -m repro chaos --churn-rate 0.1 --compare-baseline
    python -m repro cluster --nodes 4 --replicas 1 --migrate-rate 0.01
    python -m repro cluster --nodes 8 --no-route-cache --net-rtt 300
    python -m repro cluster --nodes 3 --replicas 1 --net-rtt 300 \
        --node-fault-plan crash:node=1,at=0.4 --timeout 8
    python -m repro cluster --nodes 3 --replicas 1 --net-rtt 300 \
        --node-fault-plan storm:rate=0.001 --eager-repair --hedge 4
    python -m repro cluster --node-types 2full+1accel --replicas 1 \
        --net-rtt 300
    python -m repro breakdown --program redis
    python -m repro sweep smoke --jobs 2
    python -m repro sweep --list
    python -m repro sweep scale --jobs 4 --store results.jsonl
    python -m repro sweep --spec campaign.json --fresh --json
    python -m repro hwcost
    python -m repro --version
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from . import __version__
from .core.hwcost import accel_hardware_cost, hardware_cost, kv_accel_cost
from .errors import (
    AddressError,
    AllocationError,
    ClusterError,
    CoherenceError,
    ConfigError,
    FailoverError,
    FaultInjectionError,
    HeteroError,
    KVSError,
    PageFault,
    ReproError,
    STLTError,
)
from .exp import (
    ProgressReporter,
    ResultStore,
    SweepRunner,
    SweepSpec,
    accel_table,
    builtin_sweeps,
    churn_table,
    cluster_table,
    failover_table,
    get_sweep,
    hetero_table,
    latency_table,
    make_record,
    scaling_table,
    speedup_table,
    summary_table,
    sweep_descriptions,
    sweep_summary,
)
from .hetero.fleet import parse_node_types
from .sim.breakdown import run_breakdown
from .sim.config import (
    DISPATCH_POLICIES,
    DISTRIBUTIONS,
    EXEC_MODES,
    FRONTENDS,
    PROGRAMS,
    RunConfig,
)
from .sim.engine import run_experiment
from .sim.results import RunResult, speedup

#: default on-disk result store for ``repro sweep``
DEFAULT_STORE = ".repro_results.jsonl"

#: exit code per error class; subclasses resolve via the MRO, so a
#: future ``ReproError`` child inherits its parent's code (or 10)
EXIT_CODES = {
    ConfigError: 2,
    CoherenceError: 3,
    FaultInjectionError: 4,
    STLTError: 5,
    KVSError: 6,
    AddressError: 7,
    PageFault: 8,
    AllocationError: 9,
    ReproError: 10,
    ClusterError: 11,
    # FailoverError and HeteroError subclass ClusterError; their
    # explicit entries win over the superclass in the MRO walk
    FailoverError: 12,
    HeteroError: 13,
}


def exit_code_for(exc: ReproError) -> int:
    """The CLI exit code of an error (nearest class in the MRO)."""
    for klass in type(exc).__mro__:
        if klass in EXIT_CODES:
            return EXIT_CODES[klass]
    return 10


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--program", choices=PROGRAMS,
                        default="unordered_map")
    parser.add_argument("--frontend", choices=FRONTENDS, default="stlt")
    parser.add_argument("--distribution", choices=DISTRIBUTIONS,
                        default="zipf")
    parser.add_argument("--value-size", type=int, default=64)
    parser.add_argument("--keys", type=int, default=30_000)
    parser.add_argument("--ops", type=int, default=5_000,
                        help="measured operations")
    parser.add_argument("--warmup-ops", type=int, default=None)
    parser.add_argument("--stlt-rows", type=int, default=None)
    parser.add_argument("--stlt-ways", type=int, default=4)
    parser.add_argument("--fast-hash", default="xxh3")
    parser.add_argument("--prefetchers", nargs="*", default=(),
                        choices=("stream", "vldp", "tlb_distance"))
    parser.add_argument("--cores", type=int, default=1,
                        help="simulated cores, each streaming its own "
                             "workload over the shared store")
    parser.add_argument("--churn-rate", type=float, default=0.0,
                        help="per-(op, core) probability of an adverse "
                             "OS event (page migration, record realloc, "
                             "context switch, unmap/remap, STLTresize)")
    parser.add_argument("--fault", action="append", default=None,
                        metavar="SPEC",
                        help="per-core fault, e.g. "
                             "'slowdown:core=1,factor=4' or "
                             "'stall:core=0,cycles=300' (repeatable)")
    parser.add_argument("--exec-mode", choices=EXEC_MODES,
                        default="reference",
                        help="'reference' runs the original loop; "
                             "'batched' the bit-identical fused fast "
                             "path")
    parser.add_argument("--seed", type=int, default=1)


def _config_from_args(args: argparse.Namespace, frontend=None) -> RunConfig:
    # --node-types fixes the fleet size: the spec *is* the fleet, so an
    # explicit --nodes is overridden rather than cross-checked
    node_types = getattr(args, "node_types", None)
    nodes = getattr(args, "nodes", 1)
    if node_types is not None:
        nodes = len(parse_node_types(node_types))
    return RunConfig(
        program=args.program,
        frontend=frontend or args.frontend,
        distribution=args.distribution,
        value_size=args.value_size,
        num_keys=args.keys,
        measure_ops=args.ops,
        warmup_ops=args.warmup_ops,
        stlt_rows=args.stlt_rows,
        stlt_ways=args.stlt_ways,
        fast_hash=args.fast_hash,
        prefetchers=tuple(args.prefetchers),
        num_cores=args.cores,
        # open-loop service knobs, present only on the serve parser
        arrival_process=getattr(args, "arrival", "closed"),
        offered_load=getattr(args, "load", 0.7),
        dispatch_policy=getattr(args, "dispatch", "round_robin"),
        service_requests=getattr(args, "requests", None),
        churn_rate=getattr(args, "churn_rate", 0.0),
        fault_plan=tuple(getattr(args, "fault", None) or ()),
        # mitigation knobs, present only on the serve parser
        svc_timeout=getattr(args, "timeout", None),
        svc_retries=getattr(args, "retries", 0),
        svc_backoff=getattr(args, "backoff", 2.0),
        svc_hedge=getattr(args, "hedge", None),
        svc_fallback=getattr(args, "fallback", False),
        # cluster knobs, present only on the cluster parser
        nodes=nodes,
        replicas=getattr(args, "replicas", 0),
        route_cache=not getattr(args, "no_route_cache", False),
        client_batch=getattr(args, "batch", 1),
        replica_reads=getattr(args, "replica_reads", False),
        migrate_rate=getattr(args, "migrate_rate", 0.0),
        net_rtt_cycles=getattr(args, "net_rtt", 0.0),
        # failover knobs, present only on the cluster parser (its
        # --timeout/--hedge use cluster_* dests so they never collide
        # with the serve parser's svc mitigation flags)
        node_fault_plan=tuple(getattr(args, "node_fault_plan", None)
                              or ()),
        failover_detect_cycles=getattr(args, "failover_detect_cycles",
                                       4000.0),
        repair_policy=getattr(args, "repair_policy", "lazy"),
        cluster_timeout=getattr(args, "cluster_timeout", None),
        cluster_hedge=getattr(args, "cluster_hedge", None),
        # heterogeneous fleet knobs, present only on the cluster parser
        node_types=node_types,
        hetero_big_key_fraction=getattr(args, "big_key_fraction", 0.0),
        exec_mode=getattr(args, "exec_mode", "reference"),
        seed=args.seed,
    )


def _print_result(result: RunResult) -> None:
    print(f"configuration : {result.label}")
    print(f"operations    : {result.ops} "
          f"({result.gets} GET / {result.sets} SET)")
    print(f"cycles/op     : {result.cycles_per_op:.1f}")
    print(f"TLB misses    : {result.tlb_misses}")
    print(f"page walks    : {result.page_walks}")
    print(f"L1 misses     : {result.cache_misses}")
    print(f"DRAM accesses : {result.mem.dram_accesses}")
    print(f"DRAM busy     : {result.mem.dram_busy_fraction:.1%} of cycles")
    if result.mem.dram_max_queue_cycles:
        print(f"DRAM max queue: {result.mem.dram_max_queue_cycles} cycles")
    if result.fast_miss_rate is not None:
        print(f"table miss    : {result.fast_miss_rate:.2%}")
        print(f"table size    : {result.fast_table_bytes >> 10} KiB")
    if result.mem.stb_hits:
        print(f"STB hits      : {result.mem.stb_hits}")
    _print_accel(result)
    if result.cores:
        print(f"cores         : {result.num_cores}")
        print(f"throughput    : {result.throughput:.4f} ops/cycle")
        fairness = result.fairness
        if fairness is not None:
            print(f"fairness      : {fairness:.4f} (Jain)")
        for core in result.per_core_results():
            miss = ("" if core.fast_miss_rate is None
                    else f"  table miss {core.fast_miss_rate:.2%}")
            print(f"  core {core.core_id}: {core.ops} ops, "
                  f"{core.cycles_per_op:.1f} cycles/op{miss}")


def _print_accel(result: RunResult) -> None:
    """A rival design's telemetry line; nothing for the other designs."""
    if result.accel is not None:
        pairs = ", ".join(f"{key}={value}"
                          for key, value in sorted(result.accel.items())
                          if key != "accel")
        print(f"accel         : {result.accel.get('accel')} ({pairs})")


def cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if args.json:
        result = run_experiment(config)
        record = make_record(config, result)
        if args.compare_baseline and args.frontend != "baseline":
            base_config = _config_from_args(args, "baseline")
            baseline = run_experiment(base_config)
            record["baseline"] = make_record(base_config, baseline)
            record["speedup"] = speedup(baseline, result)
        print(json.dumps(record, sort_keys=True))
        return 0
    result = run_experiment(config)
    _print_result(result)
    if args.compare_baseline and args.frontend != "baseline":
        baseline = run_experiment(_config_from_args(args, "baseline"))
        print(f"baseline      : {baseline.cycles_per_op:.1f} cycles/op")
        print(f"speedup       : {speedup(baseline, result):.2f}x")
    return 0


def _print_service(result: RunResult) -> None:
    service = result.service or {}
    latency = service.get("latency", {})
    print(f"configuration : {result.label}")
    print(f"closed loop   : {result.cycles_per_op:.1f} cycles/op, "
          f"{result.throughput:.5f} ops/cycle capacity")
    print(f"traffic       : {service.get('process')} arrivals, "
          f"{service.get('dispatch')} dispatch, "
          f"{service.get('requests')} requests")
    print(f"offered       : {service.get('arrival_rate', 0.0):.5f} "
          f"ops/cycle (load {service.get('offered_load', 0.0):.2f})")
    print(f"achieved      : "
          f"{service.get('achieved_throughput', 0.0):.5f} ops/cycle")
    print(f"latency p50   : {latency.get('p50', 0.0):.0f} cycles")
    print(f"latency p95   : {latency.get('p95', 0.0):.0f} cycles")
    print(f"latency p99   : {latency.get('p99', 0.0):.0f} cycles")
    print(f"latency p99.9 : {latency.get('p999', 0.0):.0f} cycles")
    print(f"mean latency  : {service.get('mean_latency', 0.0):.1f} cycles "
          f"({service.get('mean_queue_delay', 0.0):.1f} queueing)")
    if service.get("mitigation"):
        print(f"mitigation    : {service.get('timeouts', 0)} timeouts, "
              f"{service.get('retries', 0)} retries, "
              f"{service.get('hedges', 0)} hedges "
              f"({service.get('hedge_wins', 0)} won), "
              f"{service.get('fallbacks', 0)} fallbacks")
    for core in service.get("per_core", []):
        print(f"  core {core['core']}: {core['requests']} reqs, "
              f"busy {core['busy_fraction']:.1%}, "
              f"queue depth max {core['max_queue_depth']} / "
              f"mean {core['mean_queue_depth']:.2f}")


def cmd_serve(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    result = run_experiment(config)
    if args.json:
        print(json.dumps(make_record(config, result), sort_keys=True))
        return 0
    _print_service(result)
    if result.chaos is not None:
        print()
        _print_chaos_telemetry(result.chaos)
    return 0


def _print_chaos_telemetry(chaos: dict) -> None:
    events = chaos.get("events", {})
    fired = ", ".join(f"{kind}={count}"
                      for kind, count in events.items() if count)
    oracle = chaos.get("oracle", {})
    print(f"churn rate    : {chaos.get('churn_rate', 0.0):g}")
    if chaos.get("fault_plan"):
        print(f"fault plan    : {', '.join(chaos['fault_plan'])} "
              f"({chaos.get('fault_cycles_charged', 0)} cycles charged)")
    print(f"chaos events  : {fired or 'none fired'}")
    print(f"churn volume  : {chaos.get('pages_migrated', 0)} pages "
          f"migrated, {chaos.get('pages_unmapped', 0)} unmapped, "
          f"{chaos.get('records_moved', 0)} records moved "
          f"({chaos.get('protocol_skips', 0)} without the refresh "
          f"protocol)")
    print(f"IPB overflows : {chaos.get('ipb_overflows', 0)} "
          f"({chaos.get('stlt_rows_scrubbed', 0)} STLT rows scrubbed)")
    print(f"oracle        : {oracle.get('checks', 0)} checks "
          f"({oracle.get('fast_checks', 0)} fast-path), "
          f"{oracle.get('violations', 0)} violations")


def cmd_chaos(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if not config.chaos_enabled:
        print("chaos: nothing to inject — give --churn-rate > 0 and/or "
              "--fault SPEC", file=sys.stderr)
        return 2
    result = run_experiment(config)
    if args.json:
        record = make_record(config, result)
        if args.compare_baseline and args.frontend != "baseline":
            base_config = _config_from_args(args, "baseline")
            baseline = run_experiment(base_config)
            record["baseline"] = make_record(base_config, baseline)
            record["speedup"] = speedup(baseline, result)
        print(json.dumps(record, sort_keys=True))
        return 0
    print(f"configuration : {result.label}")
    print(f"cycles/op     : {result.cycles_per_op:.1f}")
    _print_accel(result)
    _print_chaos_telemetry(result.chaos or {})
    if args.compare_baseline and args.frontend != "baseline":
        baseline = run_experiment(_config_from_args(args, "baseline"))
        print(f"baseline      : {baseline.cycles_per_op:.1f} cycles/op "
              f"(same churn)")
        print(f"speedup       : {speedup(baseline, result):.2f}x under "
              f"churn")
    return 0


def _print_cluster(result: RunResult) -> None:
    cluster = result.cluster or {}
    latency = cluster.get("latency", {})
    migration = cluster.get("migration", {})
    network = cluster.get("network", {})
    lookups = (cluster.get("route_hits", 0)
               + cluster.get("route_stale_hits", 0)
               + cluster.get("route_misses", 0))
    hit_rate = (cluster.get("route_hits", 0) / lookups) if lookups else 0.0
    print(f"configuration : {result.label}")
    print(f"fleet         : {cluster.get('nodes')} node(s), "
          f"{cluster.get('replicas', 0)} replica(s)/slot, "
          f"{cluster.get('clients')} client(s) "
          f"(batch {cluster.get('client_batch', 1)}, route cache "
          f"{'on' if cluster.get('route_cache', True) else 'off'}"
          f"{', replica reads' if cluster.get('replica_reads') else ''})")
    print(f"traffic       : {cluster.get('process')} arrivals, "
          f"{cluster.get('requests')} requests "
          f"(load {cluster.get('offered_load', 0.0):.2f})")
    print(f"capacity      : {cluster.get('total_capacity', 0.0):.5f} "
          f"ops/cycle across nodes")
    print(f"offered       : {cluster.get('arrival_rate', 0.0):.5f} "
          f"req/cycle")
    print(f"achieved      : {cluster.get('achieved_throughput', 0.0):.5f} "
          f"req/cycle")
    print(f"latency p50   : {latency.get('p50', 0.0):.0f} cycles")
    print(f"latency p95   : {latency.get('p95', 0.0):.0f} cycles")
    print(f"latency p99   : {latency.get('p99', 0.0):.0f} cycles")
    print(f"latency p99.9 : {latency.get('p999', 0.0):.0f} cycles")
    print(f"mean latency  : {cluster.get('mean_latency', 0.0):.1f} cycles")
    print(f"fairness      : {cluster.get('fairness', 0.0):.4f} (Jain, "
          f"per-node requests)")
    print(f"route cache   : {cluster.get('route_hits', 0)} hits, "
          f"{cluster.get('route_stale_hits', 0)} stale, "
          f"{cluster.get('route_misses', 0)} misses "
          f"({hit_rate:.1%} hit rate)")
    print(f"redirects     : {cluster.get('moved_redirects', 0)} MOVED, "
          f"{cluster.get('ask_redirects', 0)} ASK")
    if migration.get("started"):
        print(f"migrations    : {migration.get('started', 0)} started, "
              f"{migration.get('committed', 0)} committed, "
              f"{migration.get('skipped', 0)} skipped")
    if network.get("transfers"):
        print(f"network       : {network.get('transfers', 0)} transfers, "
              f"{network.get('bytes_moved', 0)} bytes, "
              f"{network.get('link_wait_cycles', 0.0):.0f} cycles of "
              f"link wait")
    resilience = cluster.get("resilience") or {}
    if resilience:
        print(f"resilience    : {resilience.get('timeouts', 0)} "
              f"timeouts ({cluster.get('failed_requests', 0)} requests "
              f"failed), {resilience.get('hedges', 0)} hedges "
              f"({resilience.get('hedge_wins', 0)} won)")
    failover = cluster.get("failover") or {}
    if failover:
        events = failover.get("events", {})
        fired = ", ".join(f"{kind}={count}"
                          for kind, count in events.items() if count)
        print(f"node faults   : {fired or 'none fired'} "
              f"({failover.get('skipped', 0)} skipped)")
        print(f"failover      : {failover.get('promotions', 0)} "
              f"promotion(s) over {failover.get('slots_promoted', 0)} "
              f"slot(s), {failover.get('cancelled_promotions', 0)} "
              f"cancelled, repair {failover.get('repair_policy')} "
              f"({cluster.get('eager_repairs', 0)} pushed, "
              f"{failover.get('post_promotion_moved', 0)} MOVED "
              f"post-promotion)")
    if cluster.get("writes"):
        losses = cluster.get("acked_write_losses", 0)
        window = (failover or {}).get("loss_window")
        loss_note = (f"{losses} acked write(s) LOST"
                     + (f" (requests {window[0]}..{window[1]})"
                        if window else "")
                     if losses else "all acked writes survived")
        print(f"writes        : {cluster.get('writes', 0)} attempted, "
              f"{cluster.get('acked_writes', 0)} acked; {loss_note}")
    hetero = cluster.get("hetero") or {}
    if hetero:
        fallbacks = hetero.get("fallbacks", {})
        print(f"fleet mix     : {hetero.get('node_types')} "
              f"({hetero.get('fleet_cost_units', 0.0):g} cost units, "
              f"accel capacity {hetero.get('accel_keys')} keys)")
        print(f"accel GETs    : {hetero.get('accel_gets', 0)} "
              f"({hetero.get('accel_hits', 0)} served on-chip, "
              f"{hetero.get('accel_hit_fraction', 0.0):.1%} hit "
              f"fraction)")
        print(f"fallbacks     : {fallbacks.get('capacity', 0)} capacity, "
              f"{fallbacks.get('set', 0)} SET, "
              f"{fallbacks.get('oversized', 0)} oversized "
              f"({hetero.get('fallback_rate', 0.0):.1%} of requests, "
              f"{hetero.get('cap_reroutes', 0)} client pre-routes)")
        print(f"cost-normal.  : "
              f"{hetero.get('cost_normalized_throughput', 0.0):.5f} "
              f"req/cycle per cost unit")
        cviolations = hetero.get("capability_violations", 0)
        print(f"capab. oracle : "
              f"{'OK' if not cviolations else f'{cviolations} VIOLATIONS'} "
              f"({hetero.get('capability_checks', 0)} dispatch checks)")
    violations = cluster.get("oracle_violations", 0)
    fviolations = cluster.get("failover_violations", 0)
    print(f"oracle        : "
          f"{'OK' if not violations else f'{violations} VIOLATIONS'} "
          f"(every request served by an authoritative node)")
    if cluster.get("failover") is not None or fviolations:
        print(f"acked oracle  : "
              f"{'OK' if not fviolations else f'{fviolations} VIOLATIONS'} "
              f"(every replicated acked write survived)")
    for node in cluster.get("per_node", []):
        print(f"  node {node['node']}: {node['requests']} reqs, "
              f"busy {node['busy_fraction']:.1%}, "
              f"mean latency {node['mean_latency']:.0f} cycles")


def cmd_cluster(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if not config.cluster_enabled:
        print("cluster: nothing to shard — give --nodes > 1 (and/or "
              "--net-rtt > 0 for a one-node anchor run)", file=sys.stderr)
        return 2
    result = run_experiment(config)
    if args.json:
        print(json.dumps(make_record(config, result), sort_keys=True))
        return 0
    _print_cluster(result)
    return 0


def cmd_breakdown(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    breakdown = run_breakdown(config)
    if args.json:
        record = make_record(config, breakdown.result)
        record["shares"] = dict(breakdown.shares)
        record["addressing_share"] = breakdown.addressing_share
        print(json.dumps(record, sort_keys=True))
        return 0
    print(f"configuration    : {breakdown.result.label}")
    for category, share in breakdown.rows():
        print(f"  {category:<12} {share:6.1%}")
    print(f"addressing share : {breakdown.addressing_share:.1%}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.list:
        for name, description in sweep_descriptions().items():
            print(f"{name:<10} {description}")
        return 0
    if bool(args.name) == bool(args.spec):
        print("sweep: give exactly one of a sweep name or --spec FILE "
              f"(named sweeps: {', '.join(builtin_sweeps())}; "
              f"--list describes them)",
              file=sys.stderr)
        return 2
    if args.name:
        points = get_sweep(args.name)
    else:
        points = SweepSpec.from_file(args.spec).expand()

    store = ResultStore(args.store)
    progress = None if args.quiet else ProgressReporter(jobs=args.jobs)
    runner = SweepRunner(
        store=store,
        jobs=args.jobs,
        timeout=args.timeout,
        retries=args.retries,
        fresh=args.fresh,
        progress=progress,
    )
    started = time.perf_counter()
    report = runner.run(points)
    wall_seconds = time.perf_counter() - started
    summary = sweep_summary(report, wall_seconds)

    if args.json:
        for outcome in report:
            if outcome.record is not None:
                line = dict(outcome.record)
                line["status"] = outcome.status
            else:
                line = {"key": outcome.key, "label": outcome.label,
                        "config": outcome.config.to_dict(),
                        "status": outcome.status, "error": outcome.error}
            print(json.dumps(line, sort_keys=True))
        # the roll-up rides last, wrapped so record consumers that
        # filter on result/config keys skip it naturally
        print(json.dumps({"summary": summary}, sort_keys=True))
    else:
        print(summary_table(report))
        records = [o.record for o in report if o.record is not None]
        for render in (speedup_table, scaling_table, latency_table,
                       churn_table, cluster_table, accel_table,
                       failover_table, hetero_table):
            table = render(records)
            if table:
                print()
                print(table)
        print()
        print(report.summary())
        print(f"store: {summary['store_hits']} hit(s), "
              f"{summary['store_misses']} miss(es); "
              f"{summary['wall_seconds']:.2f}s wall")
        for outcome in report.failed:
            print(f"  failed: {outcome.label}: {outcome.error}")
    return 0 if report.ok else 1


def cmd_hwcost(args: argparse.Namespace) -> int:
    # Table I first — the paper's own design — then the rival
    # backends' per-design budgets for the head-to-head comparison.
    report = hardware_cost()
    print("stlt (Table I)")
    for component, bits in report.rows():
        print(f"  {component:<22} {bits:>5} bits")
    print(f"  total bytes: {report.total_bytes}")
    if getattr(args, "kv_accel", False):
        node = kv_accel_cost()
        print()
        print("kv-accel node (repro.hetero)")
        for component, bits in node.rows():
            print(f"  {component:<22} {bits:>8} bits")
        print(f"  total bytes: {node.total_bytes}")
    if not getattr(args, "all_accels", False):
        return 0
    from .accel import ACCEL_BACKENDS  # no other command imports it
    for accel in ACCEL_BACKENDS:
        rival = accel_hardware_cost(accel)
        print()
        print(accel)
        for component, bits in rival.rows():
            print(f"  {component:<22} {bits:>7} bits")
        print(f"  total bytes: {rival.total_bytes}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="STLT (HPCA'21) reproduction: run simulated "
                    "key-value-store experiments",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="simulate one configuration")
    _add_config_arguments(run_parser)
    run_parser.add_argument("--compare-baseline", action="store_true",
                            help="also run the baseline and print speedup")
    run_parser.add_argument("--json", action="store_true",
                            help="emit the store-record JSON instead of text")
    run_parser.set_defaults(func=cmd_run)

    serve_parser = sub.add_parser(
        "serve",
        help="open-loop service simulation: arrivals, queues, tail "
             "latency")
    _add_config_arguments(serve_parser)
    serve_parser.add_argument(
        "--arrival", choices=("poisson", "mmpp"), default="poisson",
        help="request arrival process (default: poisson)")
    serve_parser.add_argument(
        "--load", type=float, default=0.7,
        help="offered load as a fraction of closed-loop capacity "
             "(default: 0.7)")
    serve_parser.add_argument(
        "--dispatch", choices=DISPATCH_POLICIES, default="round_robin",
        help="request-to-core dispatch policy (default: round_robin)")
    serve_parser.add_argument(
        "--requests", type=int, default=None,
        help="open-loop requests to simulate "
             "(default: cores x measured ops)")
    serve_parser.add_argument(
        "--timeout", type=float, default=None,
        help="client timeout in multiples of the mean service time; "
             "enables bounded retry")
    serve_parser.add_argument(
        "--retries", type=int, default=0,
        help="bounded retries after a timeout (default: 0)")
    serve_parser.add_argument(
        "--backoff", type=float, default=2.0,
        help="timeout multiplier per retry (default: 2.0)")
    serve_parser.add_argument(
        "--hedge", type=float, default=None,
        help="hedge delay in multiples of the mean service time; "
             "duplicates still-queued requests to another core")
    serve_parser.add_argument(
        "--fallback", action="store_true",
        help="SLO-aware fallback: reroute around drowning cores at "
             "dispatch time")
    serve_parser.add_argument(
        "--json", action="store_true",
        help="emit the store-record JSON instead of text")
    serve_parser.set_defaults(func=cmd_serve)

    chaos_parser = sub.add_parser(
        "chaos",
        help="run under deterministic OS churn / fault injection with "
             "the stale-translation oracle armed")
    _add_config_arguments(chaos_parser)
    chaos_parser.set_defaults(churn_rate=0.05)
    chaos_parser.add_argument(
        "--compare-baseline", action="store_true",
        help="also run the baseline under the same churn and print the "
             "surviving speedup")
    chaos_parser.add_argument(
        "--json", action="store_true",
        help="emit the store-record JSON instead of text")
    chaos_parser.set_defaults(func=cmd_chaos)

    cluster_parser = sub.add_parser(
        "cluster",
        help="sharded multi-node cluster with a client route cache, "
             "replication, and live slot migration")
    _add_config_arguments(cluster_parser)
    cluster_parser.add_argument(
        "--nodes", type=int, default=3,
        help="sharded nodes, each a full multi-core engine (default: 3)")
    cluster_parser.add_argument(
        "--replicas", type=int, default=0,
        help="replica nodes per hash slot (default: 0)")
    cluster_parser.add_argument(
        "--node-types", default=None, metavar="SPEC",
        help="heterogeneous fleet spec, e.g. '2full+1accel': "
             "'+'-joined <count><class> terms (classes: full, accel; "
             "at least one full node); fixes the node count, "
             "overriding --nodes")
    cluster_parser.add_argument(
        "--big-key-fraction", type=float, default=0.0,
        help="fraction of the keyspace marked oversized (> 255-byte "
             "wire keys), ineligible for accelerator dispatch "
             "(default: 0)")
    cluster_parser.add_argument(
        "--no-route-cache", action="store_true",
        help="disable the client slot->node route cache (every request "
             "bootstraps through an arbitrary node)")
    cluster_parser.add_argument(
        "--batch", type=int, default=1,
        help="requests a client pipelines per batch window (default: 1)")
    cluster_parser.add_argument(
        "--replica-reads", action="store_true",
        help="serve GETs from slot replicas, rotating over the read set")
    cluster_parser.add_argument(
        "--migrate-rate", type=float, default=0.0,
        help="per-request probability that a live slot migration "
             "starts (default: 0)")
    cluster_parser.add_argument(
        "--net-rtt", type=float, default=0.0,
        help="client <-> node network round-trip in core cycles "
             "(default: 0, the quiet network)")
    cluster_parser.add_argument(
        "--node-fault-plan", action="append", default=None,
        metavar="SPEC",
        help="node fault, e.g. 'crash:node=1,at=0.4', "
             "'restart:node=1,at=0.8', "
             "'partition:node=2,start=0.3,stop=0.6', "
             "'degrade:node=0,factor=4,start=0.2,stop=0.5' or "
             "'storm:rate=0.001' (repeatable)")
    cluster_parser.add_argument(
        "--detect-cycles", type=float, default=4000.0,
        dest="failover_detect_cycles",
        help="failure-detector timeout before a dead primary's replica "
             "is promoted (default: 4000 cycles)")
    cluster_parser.add_argument(
        "--repair-policy", choices=("lazy", "eager"), default="lazy",
        help="how client route caches heal after a promotion: 'lazy' "
             "(MOVED on next touch) or 'eager' (immediate broadcast)")
    cluster_parser.add_argument(
        "--eager-repair", action="store_const", const="eager",
        dest="repair_policy",
        help="shorthand for --repair-policy eager")
    cluster_parser.add_argument(
        "--timeout", type=float, default=None, dest="cluster_timeout",
        help="per-attempt client timeout in multiples of one healthy "
             "exchange (default: none; fault-plan runs default to 8)")
    cluster_parser.add_argument(
        "--hedge", type=float, default=None, dest="cluster_hedge",
        help="read hedge delay in multiples of one healthy exchange; "
             "fires a second copy against a reachable replica")
    cluster_parser.add_argument(
        "--arrival", choices=("poisson", "mmpp"), default="poisson",
        help="cluster arrival process (default: poisson)")
    cluster_parser.add_argument(
        "--load", type=float, default=0.7,
        help="offered load as a fraction of the fleet's aggregate "
             "closed-loop capacity (default: 0.7)")
    cluster_parser.add_argument(
        "--requests", type=int, default=None,
        help="cluster requests to simulate "
             "(default: nodes x cores x measured ops)")
    cluster_parser.add_argument(
        "--json", action="store_true",
        help="emit the store-record JSON instead of text")
    cluster_parser.set_defaults(func=cmd_cluster)

    breakdown_parser = sub.add_parser(
        "breakdown", help="Fig. 1-style cycle attribution")
    _add_config_arguments(breakdown_parser)
    breakdown_parser.add_argument(
        "--json", action="store_true",
        help="emit the store-record JSON (plus shares) instead of text")
    breakdown_parser.set_defaults(func=cmd_breakdown)

    sweep_parser = sub.add_parser(
        "sweep", help="run a campaign of simulations in parallel")
    sweep_parser.add_argument(
        "name", nargs="?", default=None,
        help=f"named sweep to run ({', '.join(builtin_sweeps())})")
    sweep_parser.add_argument("--spec", default=None, metavar="FILE",
                              help="JSON sweep-spec file to run instead")
    sweep_parser.add_argument("--list", action="store_true",
                              help="list the named sweeps with one-line "
                                   "descriptions and exit")
    sweep_parser.add_argument("--jobs", type=int,
                              default=max(1, os.cpu_count() or 1),
                              help="worker processes (1 = in-process)")
    sweep_parser.add_argument("--store", default=DEFAULT_STORE,
                              help="JSONL result store path")
    sweep_parser.add_argument("--fresh", action="store_true",
                              help="re-simulate even if stored")
    sweep_parser.add_argument("--timeout", type=float, default=None,
                              help="per-run timeout in seconds")
    sweep_parser.add_argument("--retries", type=int, default=1,
                              help="retries per failing run")
    sweep_parser.add_argument("--json", action="store_true",
                              help="emit one record per line on stdout")
    sweep_parser.add_argument("--quiet", action="store_true",
                              help="suppress progress output")
    sweep_parser.set_defaults(func=cmd_sweep)

    hwcost_parser = sub.add_parser(
        "hwcost", help="Table I hardware cost accounting")
    hwcost_parser.add_argument(
        "--all-accels", action="store_true",
        help="also print per-backend budgets for the rival "
             "translation accels (victima, pcax, revelator)")
    hwcost_parser.add_argument(
        "--kv-accel", action="store_true",
        help="also print the KV-lookup accelerator node budget "
             "(repro.hetero)")
    hwcost_parser.set_defaults(func=cmd_hwcost)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # expected failure modes get a clean one-line diagnosis and a
        # distinct exit code instead of a traceback; genuine bugs
        # (TypeError and friends) still propagate loudly
        print(f"repro: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
