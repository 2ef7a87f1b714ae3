"""Extension: sharded cluster scaling and the client route cache (PR 5).

The paper accelerates one node's address translation; a deployed
key-value store is a *fleet* of such nodes behind hash-slot sharding.
This extension runs the cluster overlay — every node a full multi-core
engine, clients resolving slots through an address-centric route cache
(the cluster-scale STLT), live slot migrations firing ASK/MOVED
redirects under traffic — and pins the fleet-level analogue of the
paper's story.

Reproduction targets:

* **near-linear scaling** — aggregate achieved throughput at 8 nodes is
  at least 6x the one-node anchor under a uniform keyspace at a
  saturating offered load (the overlay adds no serial bottleneck);
* **cached routes cut the tail** — with a real client/node RTT and a
  Zipf keyspace below saturation, route-cache-on p99 is strictly lower
  than route-cache-off p99: a cached slot route skips the MOVED bounce
  exactly like a cached translation skips the page walk;
* **migration is correct and bounded** — live slot migration commits
  under running traffic with zero routing-oracle violations (stale
  routes die by MOVED/ASK redirects, never by a wrong answer) and
  inflates p99.9 by at most a bounded factor over the quiet fleet.
"""

from benchmarks.common import (
    BENCH_KEYS,
    BENCH_OPS,
    bench_config,
    print_figure,
    run_many,
    run_once,
)
from repro.exp.spec import CLUSTER_SWEEP_NODES

#: cluster runs simulate one engine *per node*; cap the per-node scale
#: so the 8-node point stays affordable (env overrides still apply
#: downward through REPRO_BENCH_KEYS / REPRO_BENCH_OPS)
CLUSTER_KEYS = min(BENCH_KEYS, 8_000)
CLUSTER_OPS = min(BENCH_OPS, 1_500)

#: the scaling pin: achieved throughput at 8 nodes vs the 1-node anchor
MIN_SCALING_AT_8 = 6.0

#: the migration pin: allowed p99.9 inflation over the quiet fleet
MAX_P999_INFLATION = 3.0

#: client/node round-trip (cycles) for the non-quiet experiments
NET_RTT = 300.0


def _cluster_config(**overrides):
    defaults = dict(
        num_keys=CLUSTER_KEYS, measure_ops=CLUSTER_OPS,
        frontend="stlt", num_cores=2, net_rtt_cycles=NET_RTT,
    )
    defaults.update(overrides)
    return bench_config(**defaults)


# ----------------------------------------------------------------------
# pin 1: throughput scaling with node count
# ----------------------------------------------------------------------

def _scaling_sweep():
    configs = {
        nodes: _cluster_config(distribution="uniform", nodes=nodes,
                               offered_load=2.0)
        for nodes in CLUSTER_SWEEP_NODES
    }
    keys = list(configs)
    metrics = run_many([configs[k] for k in keys])
    return dict(zip(keys, metrics))


def test_ext_cluster_throughput_scaling(benchmark):
    runs = run_once(benchmark, _scaling_sweep)

    anchor = runs[1]["cluster_throughput"]
    assert anchor and anchor > 0
    rows = []
    scaling = {}
    for nodes in CLUSTER_SWEEP_NODES:
        m = runs[nodes]
        scaling[nodes] = m["cluster_throughput"] / anchor
        rows.append([
            str(nodes),
            f"{m['cluster_throughput']:.5f}",
            f"{scaling[nodes]:.2f}x",
            f"{m['cluster_p99']:.0f}",
            f"{m['cluster_fairness']:.3f}",
            str(m["moved_redirects"]),
            "OK" if m["route_violations"] == 0 else "VIOLATIONS",
        ])
    print_figure(
        "Extension — cluster throughput scaling "
        "(uniform keys, saturating load, stlt nodes, RTT "
        f"{NET_RTT:g} cycles)",
        ["nodes", "req/cycle", "scaling", "p99", "fairness",
         "MOVED", "oracle"],
        rows,
        notes=[
            "each node is a full 2-core engine; the overlay replays "
            "captured per-op service times under open-loop arrivals",
            "scaling = achieved throughput over the 1-node anchor "
            "(same client/network path, one shard)",
        ],
    )

    # scaling is monotone in node count ...
    ordered = [scaling[n] for n in CLUSTER_SWEEP_NODES]
    assert all(b > a for a, b in zip(ordered, ordered[1:])), (
        f"throughput did not grow with nodes: {ordered}")
    # ... and near-linear at the top of the sweep
    assert scaling[8] >= MIN_SCALING_AT_8, (
        f"8-node scaling {scaling[8]:.2f}x below the "
        f"{MIN_SCALING_AT_8:g}x pin")
    # sharding balanced the fleet and the routing stayed coherent
    for nodes in CLUSTER_SWEEP_NODES:
        assert runs[nodes]["route_violations"] == 0
        if nodes > 1:
            assert runs[nodes]["cluster_fairness"] > 0.9


# ----------------------------------------------------------------------
# pin 2: the route cache cuts the tail
# ----------------------------------------------------------------------

def _route_cache_pair():
    configs = {
        on: _cluster_config(distribution="zipf", nodes=4,
                            offered_load=0.6, route_cache=on)
        for on in (True, False)
    }
    keys = list(configs)
    metrics = run_many([configs[k] for k in keys])
    return dict(zip(keys, metrics))


def check_route_cache_preconditions(runs: dict) -> None:
    """The cached run must resolve some requests from its route cache;
    otherwise the tail comparison credits a cache that never answered
    a lookup."""
    hits = runs[True]["route_hits"] or 0
    if hits < 1:
        raise AssertionError(
            f"precondition failed: the route-cache run made {hits} "
            f"route-cache hit(s), so its p99 owes nothing to cached "
            f"routes; enable the clients' route caches")


def test_ext_cluster_route_cache_tail(benchmark):
    runs = run_once(benchmark, _route_cache_pair)
    check_route_cache_preconditions(runs)

    cached, uncached = runs[True], runs[False]
    rows = []
    for label, m in (("on", cached), ("off", uncached)):
        lookups = ((m["route_hits"] or 0) + (m["route_stale_hits"] or 0)
                   + (m["route_misses"] or 0))
        rows.append([
            label,
            f"{(m['route_hits'] or 0) / lookups:.0%}" if lookups else "-",
            str(m["moved_redirects"]),
            f"{m['cluster_p99']:.0f}",
            f"{m['cluster_p999']:.0f}",
            f"{m['cluster_throughput']:.5f}",
        ])
    print_figure(
        "Extension — client route cache vs bootstrap routing "
        "(4 nodes, Zipf, load 0.6, RTT "
        f"{NET_RTT:g} cycles)",
        ["route cache", "hit rate", "MOVED", "p99", "p99.9",
         "req/cycle"],
        rows,
        notes=[
            "cache off: every request bootstraps through an arbitrary "
            "node and mostly eats a MOVED bounce (~3/4 at 4 nodes)",
            "cache on: hot Zipf slots resolve from the client's table "
            "— the cluster-scale STLT hit",
        ],
    )

    # an uncached fleet bounces most requests; a cached one does not
    assert uncached["moved_redirects"] > cached["moved_redirects"]
    # the pin: cached routing strictly lowers the measured p99
    assert cached["cluster_p99"] < uncached["cluster_p99"], (
        f"route cache did not cut p99: on={cached['cluster_p99']:.0f} "
        f"off={uncached['cluster_p99']:.0f}")
    # both regimes stay coherent
    assert cached["route_violations"] == 0
    assert uncached["route_violations"] == 0


# ----------------------------------------------------------------------
# pin 3: live migration — coherent and bounded
# ----------------------------------------------------------------------

def _migration_pair():
    configs = {
        rate: _cluster_config(distribution="zipf", nodes=4,
                              offered_load=0.6, replicas=1,
                              migrate_rate=rate)
        for rate in (0.0, 0.02)
    }
    keys = list(configs)
    metrics = run_many([configs[k] for k in keys])
    return dict(zip(keys, metrics))


def test_ext_cluster_live_migration(benchmark):
    runs = run_once(benchmark, _migration_pair)

    quiet, moving = runs[0.0], runs[0.02]
    inflation = (moving["cluster_p999"] / quiet["cluster_p999"]
                 if quiet["cluster_p999"] else float("inf"))
    rows = []
    for label, m in (("quiet", quiet), ("migrating", moving)):
        rows.append([
            label,
            str(m["migrations_committed"] or 0),
            str(m["ask_redirects"] or 0),
            str(m["route_stale_hits"] or 0),
            f"{m['cluster_p99']:.0f}",
            f"{m['cluster_p999']:.0f}",
            "OK" if m["route_violations"] == 0 else "VIOLATIONS",
        ])
    print_figure(
        "Extension — live slot migration under traffic "
        "(4 nodes + 1 replica, Zipf, load 0.6)",
        ["fleet", "migrations", "ASK", "stale routes", "p99", "p99.9",
         "oracle"],
        rows,
        notes=[
            f"p99.9 inflation {inflation:.2f}x "
            f"(bound {MAX_P999_INFLATION:g}x)",
            "ASK redirects serve the migration window; committed moves "
            "invalidate cached routes by MOVED on next touch",
        ],
    )

    # migration actually happened and exercised both redirect kinds
    assert (moving["migrations_committed"] or 0) > 0
    assert (moving["ask_redirects"] or 0) > 0
    # zero lost or incoherent requests: the run would have raised
    # ClusterError otherwise, and the stored verdict agrees
    assert moving["route_violations"] == 0
    assert quiet["route_violations"] == 0
    # the tail inflation is bounded
    assert inflation <= MAX_P999_INFLATION, (
        f"migration inflated p99.9 by {inflation:.2f}x "
        f"(> {MAX_P999_INFLATION:g}x)")
