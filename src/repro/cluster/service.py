"""The cluster event loop and its result record.

The pipeline (``repro cluster``, the ``scale``/``failover`` sweeps):

1. every node runs the *full* single-node simulator — a
   :class:`~repro.sim.engine.Engine` under the multi-core interleave
   with the per-op capture hook armed — yielding each node's measured
   closed-loop capacity and per-core service-cycle sequences (node 0
   keeps the run seed verbatim; node *i* derives the ``node{i}``
   stream, so nodes are independent but the whole fleet is a pure
   function of one seed);
2. an open-loop arrival process stamps cluster-wide request times at
   ``offered_load x`` the fleet's *aggregate* closed-loop capacity;
3. each request hashes to a slot, draws read-or-write off a dedicated
   stream (:data:`WRITE_FRACTION`), and a client resolves the slot
   through its route cache (hit / stale / miss — MOVED redirects on
   stale or unlucky bootstrap routes, ASK redirects through live
   migration windows; writes are only acknowledged by the primary),
   pays the network model for every hop, and is served FIFO by a core
   of the owning node, charged that node's next captured service time;
4. end-to-end latency (network + queueing + service) is recorded in
   the *serving node's* log-bucketed histogram; the per-node
   histograms merge into the fleet-wide distribution at the end —
   the same mergeable-histogram machinery :mod:`repro.svc` uses.

The loop threads a :class:`~repro.cluster.failover.FailoverScheduler`
through the same per-request cadence as migration; an empty
``node_fault_plan`` leaves it idle.  Under a plan (DESIGN.md section
13) crashed/partitioned nodes drop
messages, clients survive on per-attempt timeouts with bounded
exponential-backoff retries and (optionally) cross-node hedged reads
against replicas — the :class:`~repro.svc.service.Mitigation`
vocabulary one level up — and the failure detector promotes replicas
after ``failover_detect_cycles``.  Route-cache rows pointing at a dead
primary die by timeout instead of by MOVED (the client invalidates and
re-bootstraps); with ``repair_policy="eager"`` every committed
ownership change is instead broadcast into all client caches
immediately — the measurable lazy-vs-eager A/B.

Two oracles cross-check every run:

* the **routing oracle** (PR 5): the node that executed a request must
  authoritatively hold the key's slot at serve time (primary, replica
  for reads, importing node during an ASK window).  A violation raises
  :class:`~repro.errors.ClusterError`.
* the **failover oracle**: every acknowledged write must survive — be
  readable from the slot's authoritative read set — at the end of the
  run whenever a live replica existed at ack time.  A stranded live
  copy raises :class:`~repro.errors.FailoverError`; unavoidable losses
  (``replicas=0``, or every holder of a key crashed before
  re-replication) are reported as ``acked_write_losses`` telemetry
  with the loss window, never silently.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, fields, replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..errors import ClusterError, FailoverError, HeteroError, ReproError
from ..hetero.accel_node import (
    DEFAULT_ACCEL_KEYS,
    LOOKUP_BASE_CYCLES,
    MODE_SWITCH_DRAIN_CYCLES,
    AccelNodeModel,
    delete_cycles,
    install_cycles,
    lookup_interval_cycles,
    lookup_latency_cycles,
)
from ..hetero.fleet import (NODE_CLASS_ACCEL, NODE_CLASS_FULL, fleet_cost,
                            format_node_types)
from ..params import derive_seed
from ..svc.arrival import make_arrivals
from ..svc.histogram import LatencyHistogram
from ..svc.service import BACKOFF, Mitigation
from ..workloads.distributions import make_chooser
from ..workloads.keys import key_bytes
from .client import ClusterClient
from .failover import FailoverScheduler, parse_node_fault
from .migration import MigrationScheduler
from .network import REQUEST_HEADER_BYTES, ClusterNetwork, GapSchedule
from .topology import ClusterTopology, slot_for_key

__all__ = ["ClusterResult", "REDIRECT_CYCLES", "WRITE_FRACTION",
           "DEFAULT_CLUSTER_TIMEOUT", "run_cluster", "simulate_cluster"]

#: cycles a wrong-node consults its slot table before answering a
#: MOVED/ASK redirect (a hash-map probe plus a small reply, far below
#: one real service time — redirects are cheap, extra *hops* are not)
REDIRECT_CYCLES = 40

#: bytes of a MOVED/ASK reply (error line with slot and address)
REDIRECT_BYTES = 48

#: fraction of cluster requests that are writes (YCSB-B's read-heavy
#: mix).  Writes ride the same routing but only the primary may ack
#: them, and each ack replicates to the slot's current replica set —
#: the state the failover oracle audits
WRITE_FRACTION = 0.1

#: default per-attempt timeout under a fault plan, as a multiple of
#: (mean service time + RTT): generous enough that healthy queueing
#: almost never trips it, small enough that a handful of retries spans
#: the failure-detection window
DEFAULT_CLUSTER_TIMEOUT = 8.0

#: wire bytes of a canonical scaled key (workloads.keys.key_bytes is
#: always 24 bytes: b"user" + 20 decimal digits) — comfortably under
#: the accelerator's 255-byte reserve limit
CANON_KEY_BYTES = 24

#: clients generating the open-loop request stream
CLUSTER_CLIENTS = 8

#: bounded retries after a timed-out attempt (each retry re-resolves
#: through a bootstrap node with exponential ``BACKOFF``); no-op
#: unless a timeout is armed
CLUSTER_RETRIES = 2

#: RunConfig fields only the cluster overlay reads.  Each node engine
#: runs with all of them at their defaults: one quiet node under a
#: closed loop, with no fleet, faults or accelerators of its own
OVERLAY_FIELDS = (
    "nodes", "replicas", "route_cache",
    "migrate_rate", "net_rtt_cycles", "arrival_process",
    "service_requests", "node_fault_plan", "failover_detect_cycles",
    "repair_policy", "cluster_timeout", "cluster_hedge", "node_types")

#: requests between two trims of the link and pipeline schedules to the
#: current arrival (:meth:`~repro.cluster.network.GapSchedule.release`):
#: a trim walks every schedule (~130 on an 8-node fleet), so it runs
#: once per stride, not once per request
RELEASE_STRIDE = 1024


@dataclass
class ClusterResult:
    """Outcome of one cluster run (JSON-exact round trip)."""

    #: fleet shape
    nodes: int
    replicas: int
    clients: int
    route_cache: bool
    #: arrival process ("poisson" | "mmpp") of the cluster overlay
    process: str
    offered_load: float
    #: offered arrival rate, ops/cycle (load x aggregate capacity)
    arrival_rate: float
    #: sum of the nodes' measured closed-loop capacities, ops/cycle
    total_capacity: float
    #: cluster requests simulated
    requests: int
    #: cycles from the arrival epoch to the last response delivery
    makespan: float
    #: requests / makespan, ops/cycle — the scaling metric
    achieved_throughput: float
    mean_latency: float
    #: fleet-wide latency percentiles, cycles: p50 / p95 / p99 / p999
    #: (merged from the per-node histograms)
    latency: Dict[str, float]
    #: the merged log-bucketed latency distribution
    histogram: dict
    #: per-node statistics: node, closed_loop_throughput, requests,
    #: busy_fraction (a full node's, averaged over its cores),
    #: mean_latency
    per_node: List[dict]
    #: Jain fairness over per-node served-request counts
    fairness: float
    #: route-cache outcomes summed over the client population
    route_hits: int
    route_stale_hits: int
    route_misses: int
    #: redirect hops
    moved_redirects: int
    ask_redirects: int
    #: migration telemetry (:meth:`MigrationScheduler.report`)
    migration: dict
    #: network telemetry (:meth:`ClusterNetwork.report`)
    network: dict
    #: requests served by a node with no authority over the slot —
    #: must be zero (the run raises otherwise); stored so a violation
    #: found post-hoc in an archived record stays visible
    oracle_violations: int = 0
    #: write requests attempted / acknowledged (acked < attempted when
    #: writes fail against a dead primary)
    writes: int = 0
    acked_writes: int = 0
    #: acked writes whose loss was unavoidable: no replica existed at
    #: ack time, or every holder crashed before re-replication.  Loud
    #: telemetry, never an exception
    acked_write_losses: int = 0
    #: acked writes stranded on a *live* node outside the slot's
    #: authoritative read set — the run raises FailoverError on any
    failover_violations: int = 0
    #: requests that exhausted every retry attempt (their give-up
    #: latency still counts in the merged histogram)
    failed_requests: int = 0
    #: route-cache rows fixed by the eager-repair broadcast
    eager_repairs: int = 0
    #: client-resilience telemetry (Mitigation knobs + timeout/hedge
    #: counters); None when neither timeouts nor hedging are armed
    resilience: Optional[dict] = None
    #: failover telemetry (:meth:`FailoverScheduler.report` + repair
    #: policy, lost reads, loss window); None without a fault plan
    failover: Optional[dict] = None
    #: heterogeneous-fleet telemetry (node classes, fleet cost,
    #: accelerator hit fraction, fallback counts by class, capability
    #: oracle verdict, cost-normalized throughput, per-accelerator
    #: pipeline stats); None on a fleet without accelerators, with or
    #: without an all-full ``node_types`` spec
    hetero: Optional[dict] = None

    @property
    def p50(self) -> float:
        return self.latency["p50"]

    @property
    def p99(self) -> float:
        return self.latency["p99"]

    @property
    def p999(self) -> float:
        return self.latency["p999"]

    @property
    def route_lookups(self) -> int:
        return self.route_hits + self.route_stale_hits + self.route_misses

    @property
    def route_hit_rate(self) -> float:
        total = self.route_lookups
        return self.route_hits / total if total else 0.0

    def latency_histogram(self) -> LatencyHistogram:
        """Re-hydrate the merged distribution."""
        return LatencyHistogram.from_dict(self.histogram)

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        """All fields as JSON-native data (exact round trip)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterResult":
        """Inverse of :meth:`to_dict`; rejects unknown keys loudly."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ReproError(
                f"unknown ClusterResult field(s): {sorted(unknown)!r}")
        return cls(**data)


def _jain(values: Sequence[float]) -> float:
    """Jain's fairness index (1.0 = perfectly even)."""
    rates = [v for v in values if v > 0]
    if not rates:
        return 0.0
    total = sum(rates)
    return (total * total) / (len(rates) * sum(r * r for r in rates))


class _NodeServer:
    """FIFO core queues of one node, charging captured service times."""

    __slots__ = ("name", "op_cycles", "free_at", "served", "busy",
                 "histogram", "latency_sum")

    def __init__(self, node_id: int,
                 op_cycles: Sequence[Sequence[int]]) -> None:
        if not op_cycles or any(not seq for seq in op_cycles):
            raise ClusterError(
                f"node {node_id} produced an empty service sequence")
        self.name = f"node{node_id}"
        self.op_cycles = [list(seq) for seq in op_cycles]
        self.free_at = [0.0] * len(op_cycles)
        self.served = 0
        self.busy = 0.0
        self.histogram = LatencyHistogram()
        self.latency_sum = 0.0

    def serve(self, at: float) -> float:
        """Charge one request, starting no earlier than ``at``; returns
        the completion time.  Cores are picked round-robin (the node's
        own dispatch policy already played out inside its engine run;
        the cluster layer only needs a stable, deterministic spread)."""
        n = len(self.op_cycles)
        core = self.served % n
        sequence = self.op_cycles[core]
        service = sequence[(self.served // n) % len(sequence)]
        self.served += 1
        start = at if at > self.free_at[core] else self.free_at[core]
        completion = start + service
        self.free_at[core] = completion
        self.busy += service
        return completion


class _AccelServer:
    """The lookup pipeline of one accelerator node.

    Serving is pipelined: a lookup's *latency* spans the whole
    pipeline (hash walk + probe + value streaming) but the next lookup
    may issue after only the initiation interval.  Pipeline occupancy
    is the network links' :class:`~repro.cluster.network.GapSchedule`,
    not a single high-water clock: an install fires when the backer's
    value *arrives* — often long after queueing — and a single
    ``free_at`` would make every later lookup wait behind that
    far-future write, an artifact of reservation order, not of the
    modelled pipeline.

    Every management instruction — install after a fallback, write-
    invalidation on an acked SET — needs write mode, so each charges
    one pipeline drain
    (:data:`~repro.hetero.accel_node.MODE_SWITCH_DRAIN_CYCLES`) on top
    of its instruction cycles; mutation time is charged on this same
    timeline, never hidden.
    """

    __slots__ = ("name", "node_id", "model", "value_bytes", "_schedule",
                 "_lookup_costs", "served", "busy", "histogram",
                 "latency_sum", "lookups", "hits", "misses", "installs",
                 "invalidations", "mode_switches", "mgmt_cycles")

    def __init__(self, node_id: int, capacity_keys: int,
                 value_bytes: int) -> None:
        self.name = f"node{node_id}"
        self.node_id = node_id
        self.model = AccelNodeModel(capacity_keys)
        self.value_bytes = value_bytes
        self._schedule = GapSchedule()
        #: key length -> (lookup latency, initiation interval): both are
        #: pure functions of the key length at a fixed value size
        self._lookup_costs: Dict[int, Tuple[int, float]] = {}
        self.served = 0
        self.busy = 0.0
        self.histogram = LatencyHistogram()
        self.latency_sum = 0.0
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.installs = 0
        self.invalidations = 0
        self.mode_switches = 0
        self.mgmt_cycles = 0.0

    def _claim(self, at: float, duration: float) -> float:
        """Claim the earliest ``duration``-sized pipeline gap at or
        after ``at``; returns the occupancy's start time."""
        self.busy += duration
        return self._schedule.claim(at, duration)

    def serve_lookup(self, at: float, key_len: int) -> float:
        """Serve one *resident* lookup; returns the completion time."""
        costs = self._lookup_costs.get(key_len)
        if costs is None:
            costs = self._lookup_costs[key_len] = (
                lookup_latency_cycles(key_len, self.value_bytes),
                float(lookup_interval_cycles(key_len, self.value_bytes)))
        latency, interval = costs
        start = self._claim(at, interval)
        self.served += 1
        self.lookups += 1
        self.hits += 1
        return start + latency

    def miss_reply(self, at: float, key_len: int) -> float:
        """A capacity miss: the pipeline still hashes the key and
        probes both candidate slots before answering "not here"."""
        start = self._claim(at, float(key_len))
        self.lookups += 1
        self.misses += 1
        return start + key_len + LOOKUP_BASE_CYCLES

    def install(self, at: float, key: bytes) -> None:
        """Charge the management sequence installing ``key`` (reserve
        + associates + write value, plus a delete when a candidate
        slot must be evicted), in the pipeline's first fitting gap."""
        evicted = self.model.install(key)
        cycles = install_cycles(len(key), self.value_bytes,
                                len(evicted) if evicted else 0) \
            + MODE_SWITCH_DRAIN_CYCLES
        self._claim(at, float(cycles))
        self.mgmt_cycles += cycles
        self.mode_switches += 1
        self.installs += 1

    def invalidate(self, at: float, key: bytes) -> None:
        """Write-invalidation: an acked SET deletes the resident copy
        so the accelerator can never serve a stale value."""
        if not self.model.resident(key):
            return
        cycles = delete_cycles(len(key)) + MODE_SWITCH_DRAIN_CYCLES
        self.model.delete(key)
        self._claim(at, float(cycles))
        self.mgmt_cycles += cycles
        self.mode_switches += 1
        self.invalidations += 1

    def reset(self) -> None:
        """Crash: the on-chip memory restarts empty."""
        self.model.reset()

    def report(self) -> dict:
        data = {
            "node": self.node_id,
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
            "installs": self.installs,
            "invalidations": self.invalidations,
            "mode_switches": self.mode_switches,
            "mgmt_cycles": self.mgmt_cycles,
        }
        data.update(self.model.report())
        return data


class _AckedWrite:
    """Latest acknowledged value of one key: who holds a copy."""

    __slots__ = ("holders", "had_replica")

    def __init__(self, holders: Set[int]) -> None:
        self.holders = holders
        self.had_replica = len(holders) > 1


def simulate_cluster(
    config,
    node_capacities: Sequence[float],
    node_op_cycles: Sequence[Sequence[Sequence[int]]],
) -> ClusterResult:
    """Run the cluster overlay over measured per-node service times.

    ``node_capacities[i]`` is node ``i``'s closed-loop throughput
    (ops/cycle); ``node_op_cycles[i][c]`` is the captured per-op
    service sequence of core ``c`` on node ``i``.  Everything else —
    arrivals, key stream, read/write mix, client choices, migration
    and fault schedules — derives from ``config.seed`` through
    namespaced streams.

    Every run takes one request path.  The fleet is
    ``config.node_classes`` as given: without accelerators (no
    ``node_types``, or an all-full one) every capability check is a
    membership test in an empty set.  The failover scheduler is always
    built, and an empty fault plan leaves it idle.  Fleet and plan only
    choose the payload: the ``hetero`` block on a mixed fleet, the
    ``failover`` block under a fault plan.
    """
    nodes = config.nodes
    if len(node_capacities) != nodes or len(node_op_cycles) != nodes:
        raise ClusterError(
            f"got {len(node_capacities)} capacities / "
            f"{len(node_op_cycles)} cycle captures for {nodes} node(s)")
    total_capacity = float(sum(node_capacities))
    if total_capacity <= 0.0:
        raise ClusterError("aggregate capacity must be positive")

    # -- the fleet ----------------------------------------------------
    # one request path for every fleet: an all-full fleet is a mixed
    # fleet whose accelerator set is empty, so each accelerator check
    # below is a membership test that simply never fires
    node_classes = config.node_classes
    topology = ClusterTopology(nodes, config.replicas,
                               node_classes=node_classes)
    accel_nodes = topology.accel_nodes
    # chooses the result payload only: mixed fleets report a hetero block
    hetero = bool(accel_nodes)
    network = ClusterNetwork(config.net_rtt_cycles)
    servers = [
        _AccelServer(i, DEFAULT_ACCEL_KEYS, config.value_size)
        if topology.is_accel(i)
        else _NodeServer(i, node_op_cycles[i])
        for i in range(nodes)
    ]
    clients = [
        ClusterClient(
            i, nodes,
            route_cache=config.route_cache,
            seed=derive_seed(config.seed, f"client{i}"),
        )
        for i in range(CLUSTER_CLIENTS)
    ]

    # -- the seeded request stream ------------------------------------
    process = config.arrival_process \
        if config.arrival_process != "closed" else "poisson"
    count = config.effective_cluster_requests
    rate = config.offered_load * total_capacity
    arrivals = make_arrivals(process, rate, count,
                             seed=derive_seed(config.seed,
                                              "cluster_arrival"))
    chooser = make_chooser(config.distribution, config.num_keys,
                           seed=derive_seed(config.seed,
                                            "cluster_keystream"))
    key_ids = chooser.choose_many(count)
    # the read/write mix rides its own stream so enabling faults or
    # changing any payload policy never shifts which requests write
    rw_rng = random.Random(derive_seed(config.seed, "cluster_rw"))
    write_flags = [rw_rng.random() < WRITE_FRACTION for _ in range(count)]
    slot_of = [-1] * config.num_keys  # key id -> slot, -1 until first use
    #: key id -> wire key bytes, rendered with the slot on first use
    wire_key: List[Optional[bytes]] = [None] * config.num_keys

    def slot_for(key_id: int) -> int:
        slot = slot_of[key_id]
        if slot < 0:
            key = wire_key[key_id] = key_bytes(key_id)
            slot = slot_of[key_id] = slot_for_key(key, config.fast_hash)
        return slot

    # migration payloads target the *populated* keyspace: a migration
    # event moves the slot of a random live key, so scaled-down runs
    # (a few hundred keys over 16384 slots) still exercise ASK windows
    # and post-commit stale routes on slots that carry traffic
    migration = MigrationScheduler(
        topology, config.migrate_rate, config.seed,
        slot_source=lambda rng: slot_for(rng.randrange(config.num_keys)))

    # -- failover machinery -------------------------------------------
    # always built: an empty plan leaves the scheduler idle (no node is
    # ever crashed or isolated, no callback fires)
    plan = tuple(parse_node_fault(s) for s in config.node_fault_plan)
    failover = FailoverScheduler(
        topology, network, plan, config.seed, count,
        detect_cycles=config.failover_detect_cycles)

    # per-attempt client resilience, the svc Mitigation vocabulary one
    # level up.  Budgets are multiples of one healthy exchange (mean
    # service time + RTT); under a fault plan timeouts default on so a
    # crashed primary costs bounded waits, not a hung run
    all_cycles = [c for node_seq in node_op_cycles
                  for core_seq in node_seq for c in core_seq]
    base_cycles = max(
        sum(all_cycles) / len(all_cycles) + config.net_rtt_cycles, 1.0)
    timeout_mult = config.cluster_timeout
    if timeout_mult is None and plan:
        timeout_mult = DEFAULT_CLUSTER_TIMEOUT
    mitigation = Mitigation(
        timeout_cycles=(timeout_mult * base_cycles
                        if timeout_mult is not None else None),
        retries=CLUSTER_RETRIES,
        hedge_cycles=(config.cluster_hedge * base_cycles
                      if config.cluster_hedge is not None else None),
    )
    timeout_cycles = mitigation.timeout_cycles
    hedge_cycles = mitigation.hedge_cycles
    attempts = 1 + mitigation.retries if timeout_cycles is not None else 1

    # -- the failover oracle's data bookkeeping -----------------------
    # key -> latest acked write (who holds a copy); slot -> acked keys
    acked: Dict[int, _AckedWrite] = {}
    slot_keys: Dict[int, Set[int]] = {}
    eager = config.repair_policy == "eager"
    current_index = [0]
    counters = {"eager_repairs": 0, "lost_reads": 0, "loss_events": 0,
                "hedges": 0, "hedge_wins": 0, "post_promotion_moved": 0}
    loss_window: List[int] = []

    def _mark_loss(keys_lost: int) -> None:
        if keys_lost <= 0:
            return
        counters["loss_events"] += keys_lost
        index = current_index[0]
        if not loss_window:
            loss_window.extend((index, index))
        else:
            loss_window[1] = index

    def _can_sync_from(node: int) -> bool:
        # a graceful handover ships the slot's data with it — possible
        # only while the previous owner is alive and reachable
        return (node not in failover.crashed
                and node not in failover.isolated)

    def _resync_targets(slot: int) -> FrozenSet[int]:
        # durable copies live on the write authority + replicas; for a
        # homogeneous fleet that is exactly the read set, for a mixed
        # one it excludes accelerator primaries (their on-chip memory
        # is a cache, never a copy of record).  A re-sync cannot land
        # on a crashed member still inside its detection window: its
        # process is gone, and _node_crashed already dropped it from
        # every holder set.  A partitioned member keeps its place: a
        # partition wipes no copy, the same rule _node_crashed applies.
        return topology.durable_set(slot) - failover.crashed

    def _owner_changed(slot: int, old: int, new: int) -> None:
        # data: re-replicate the slot's acked keys onto the new regime
        # when the data can actually get there (the heir already holds
        # a copy, or the old owner can ship it)
        keys = slot_keys.get(slot)
        if keys:
            durable = _resync_targets(slot)
            # an accelerator owner never holds a copy, so its handover
            # ships the data from any live durable holder instead
            from_accel = topology.is_accel(old)
            for key in keys:
                holders = acked[key].holders
                if not holders:
                    continue
                if new in holders or (old in holders
                                      and _can_sync_from(old)) \
                        or (from_accel
                            and any(map(_can_sync_from, holders))):
                    holders.clear()
                    holders.update(durable)
        # routes: the eager-repair broadcast pushes the new owner into
        # every client cache — fixing stale rows *and* installing rows
        # where timeouts already scrubbed one (the shootdown-style
        # alternative the lazy MOVED path avoids, paid here in repair
        # traffic instead of redirects)
        if eager:
            for client in clients:
                cache = client.cache
                if cache is None:
                    continue
                if cache.lookup(slot) != new:
                    cache.invalidate(slot)
                    cache.learn(slot, new)
                    counters["eager_repairs"] += 1

    topology.on_owner_change = _owner_changed

    def _node_crashed(node: int) -> None:
        # the process died: every copy it held is gone; keys whose
        # last copy just vanished are lost (telemetry + window)
        lost = 0
        for rec in acked.values():
            if node in rec.holders:
                rec.holders.discard(node)
                if not rec.holders:
                    lost += 1
        _mark_loss(lost)
        # a crashed accelerator loses its on-chip memory: it
        # restarts cold and re-fills through capacity fallbacks
        server = servers[node]
        if isinstance(server, _AccelServer):
            server.reset()

    def _promotion(node: int, slots: List[int]) -> None:
        # slots whose new owner has no copy serve fenced/empty data
        # from here on: the loss becomes visible now
        fenced = 0
        for slot in slots:
            owner = topology.owner(slot)
            for key in slot_keys.get(slot, ()):
                holders = acked[key].holders
                if holders and owner not in holders:
                    fenced += 1
        _mark_loss(fenced)

    def _membership_changed() -> None:
        # ring membership moved: replica sets of slots whose owner
        # stayed put may have changed — the replication daemon
        # re-syncs every key whose primary still holds a copy
        for slot, keys in slot_keys.items():
            durable: Optional[FrozenSet[int]] = None
            # the node driving the re-sync is the one serving the
            # slot's writes: the primary, or (mixed fleets) the
            # accelerator primary's full-class backer.  A backer
            # is picked over the active full set, so membership
            # may have moved it: an accelerator-owned slot re-syncs
            # from any live durable holder
            authority = topology.write_authority(slot)
            from_accel = topology.is_accel(topology.owner(slot))
            for key in keys:
                holders = acked[key].holders
                if authority in holders or (
                        from_accel
                        and any(map(_can_sync_from, holders))):
                    if durable is None:
                        durable = _resync_targets(slot)
                    holders.clear()
                    holders.update(durable)

    failover.on_crash = _node_crashed
    failover.on_promotion = _promotion
    failover.on_membership_change = _membership_changed

    # -- the event loop -----------------------------------------------
    accel_schedules = [server._schedule for server in servers
                       if isinstance(server, _AccelServer)]
    moved_redirects = 0
    oracle_violations = 0
    failed_requests = 0
    writes = 0
    acked_writes = 0
    last_delivery = 0.0
    total_latency = 0.0
    value_bytes = REQUEST_HEADER_BYTES + config.value_size
    failed_hist = LatencyHistogram()
    hetero_counters = {"accel_gets": 0, "accel_hits": 0,
                       "fallback_capacity": 0, "fallback_set": 0}
    capability_checks = 0
    capability_violations = 0
    # an unarmed scheduler opens no ASK window: skip its per-attempt hook
    migrating = migration.active

    def _read_hedge(client: ClusterClient, slot: int, at: float,
                    req_bytes: int, resp_bytes: int,
                    exclude: int) -> Optional[Tuple[float, int]]:
        """Hedge a read against the first reachable replica (ring
        order); both copies consume resources, first completion wins at
        the caller.  Returns (delivery, node) or None."""
        for node in topology.replicas_of(slot):
            if node == exclude:
                continue
            server = servers[node]
            if not network.reachable(client.name, server.name):
                continue
            t = network.one_way(client.name, server.name, req_bytes,
                                at)
            if math.isinf(t):
                continue
            completion = server.serve(t)
            delivery = network.one_way(server.name, client.name,
                                       resp_bytes, completion)
            if not math.isinf(delivery):
                counters["hedges"] += 1
                return delivery, node
        return None

    def _attempt(client: ClusterClient, slot: int, owner: int,
                 start: float, is_write: bool, use_cache: bool,
                 req_bytes: int, resp_bytes: int, key_id: int
                 ) -> Optional[Tuple[float, int, bool, bool]]:
        """One request attempt from ``start`` against ``slot``, whose
        primary is ``owner``.  Returns (delivery, serve_node,
        served_via_ask, hedged) or None if every path timed out against
        unreachable nodes."""
        nonlocal moved_redirects, oracle_violations
        nonlocal capability_checks, capability_violations
        if use_cache:
            target, _kind = client.target_for(slot, owner, topology,
                                              not is_write)
        else:
            # a retry after a timeout: the stale row is gone, ask any
            # node and let MOVED point at the promoted owner
            target = client.bootstrap_node()
        if target in accel_nodes:
            # capability pre-route: writes never touch an accelerator
            # — the client knows every node's class, so this is
            # local, not an extra hop
            target = client.capability_route(slot, target, topology,
                                             is_write)
        t = network.one_way(client.name, servers[target].name,
                            req_bytes, start)
        if math.isinf(t):
            if hedge_cycles is not None and not is_write:
                alt = _read_hedge(client, slot, start + hedge_cycles,
                                  req_bytes, resp_bytes, target)
                if alt is not None:
                    counters["hedge_wins"] += 1
                    return alt[0], alt[1], False, True
            return None

        # MOVED: the contacted node has no authority over the request —
        # reads may land on the primary or any replica, writes only on
        # the primary — it answers with the owner's address, the
        # client retries there
        serve_node = target
        # writes are acknowledged by the slot's write authority: the
        # primary — or, when an accelerator owns the slot, its
        # full-class backer (the node holding the authoritative data)
        route = topology.route(slot)
        write_target = route.backer
        authority = (write_target,) if is_write else route.read_set
        if target not in authority:
            moved_redirects += 1
            if failover.promotions and topology.epoch(slot) > 0:
                # the lazy-vs-eager A/B's numerator: redirects spent
                # re-learning slots a promotion (or later churn) has
                # actually rewired — eager's broadcast pre-heals
                # exactly these, lazy pays one MOVED per re-touch
                counters["post_promotion_moved"] += 1
            t += REDIRECT_CYCLES
            t = network.one_way(servers[target].name, client.name,
                                REDIRECT_BYTES, t)
            client.on_moved(slot, owner)
            serve_node = write_target if is_write else owner
            t = network.one_way(client.name, servers[serve_node].name,
                                req_bytes, t)
            if math.isinf(t):
                # MOVED pointed into the detection window's corpse
                if hedge_cycles is not None and not is_write:
                    alt = _read_hedge(client, slot,
                                      start + hedge_cycles, req_bytes,
                                      resp_bytes, serve_node)
                    if alt is not None:
                        counters["hedge_wins"] += 1
                        return alt[0], alt[1], False, True
                return None

        # ASK: the slot is mid-migration and this is its old primary —
        # one-shot forward to the importing node, nothing cached
        served_via_ask = False
        ask = migration.ask_target(slot, serve_node) if migrating else None
        if ask is not None:
            t += REDIRECT_CYCLES
            t = network.one_way(servers[serve_node].name, client.name,
                                REDIRECT_BYTES, t)
            t = network.one_way(client.name, servers[ask].name,
                                req_bytes, t)
            if math.isinf(t):
                return None
            serve_node = ask
            served_via_ask = True

        # -- the routing oracle ---------------------------------------
        # the topology cannot change inside an attempt, so the route
        # read above is still the truth at serve time
        if serve_node not in authority and not (
                served_via_ask
                and serve_node == migration.importing_node(slot)):
            oracle_violations += 1

        server = servers[serve_node]
        capability_checks += 1
        if serve_node in accel_nodes:
            key = wire_key[key_id]
            if is_write:
                # the capability fence: dispatch makes this path
                # unreachable; if a request ever lands here anyway the
                # violation is recorded loudly (the run raises at the
                # end) and the backer serves it so accounting holds
                capability_violations += 1
                serve_node = route.backer
                server = servers[serve_node]
                completion = server.serve(t)
            elif server.model.resident(key):
                hetero_counters["accel_gets"] += 1
                hetero_counters["accel_hits"] += 1
                completion = server.serve_lookup(t, len(key))
            else:
                # capacity miss: the pipeline answers "not here", the
                # client falls back to the slot's full-class backer,
                # and the served value is installed behind the
                # accelerator's pipeline for the next touch
                hetero_counters["accel_gets"] += 1
                hetero_counters["fallback_capacity"] += 1
                accel = server
                t = accel.miss_reply(t, len(key))
                t = network.one_way(accel.name, client.name,
                                    REDIRECT_BYTES, t)
                backer = route.backer
                t = network.one_way(client.name, servers[backer].name,
                                    req_bytes, t)
                if math.isinf(t):
                    return None
                serve_node = backer
                server = servers[serve_node]
                completion = server.serve(t)
                accel.install(completion, key)
        else:
            completion = server.serve(t)
        delivery = network.one_way(server.name, client.name,
                                   resp_bytes, completion)
        hedged = False
        if hedge_cycles is not None and not is_write \
                and delivery - start > hedge_cycles:
            # the straggler hedge: a second copy fires after the hedge
            # delay; both consume resources, first completion wins
            alt = _read_hedge(client, slot, start + hedge_cycles,
                              req_bytes, resp_bytes, serve_node)
            if alt is not None and alt[0] < delivery:
                counters["hedge_wins"] += 1
                delivery, serve_node = alt
                hedged = True
        return delivery, serve_node, served_via_ask, hedged

    for index, (arrival, key_id) in enumerate(zip(arrivals, key_ids)):
        current_index[0] = index
        if not index % RELEASE_STRIDE:
            # every claim of this request and of the later ones departs
            # at or after its arrival, and arrivals never decrease: the
            # intervals that ended by now are never looked at again
            network.release(arrival)
            for schedule in accel_schedules:
                schedule.release(arrival)
        # each scheduler's due test skips a no-op before_request
        if index >= failover.next_due:
            failover.before_request(index, arrival)
        if index >= migration.next_due:
            migration.before_request(index)
        slot = slot_for(key_id)
        # only the two schedulers above move a slot, never an attempt:
        # one owner read serves the whole request
        owner = topology.owner(slot)
        client = clients[index % CLUSTER_CLIENTS]
        is_write = write_flags[index]
        if is_write:
            writes += 1
            if owner in accel_nodes:
                # demand-side fallback accounting: writes whose slot an
                # accelerator owns but which only its backer can serve
                hetero_counters["fallback_set"] += 1
        # a write carries the value up; a read carries it back
        req_bytes = value_bytes if is_write else REQUEST_HEADER_BYTES
        resp_bytes = REQUEST_HEADER_BYTES if is_write else value_bytes

        attempt_start = arrival
        outcome = None
        for attempt in range(attempts):
            outcome = _attempt(client, slot, owner, attempt_start,
                               is_write, attempt == 0, req_bytes,
                               resp_bytes, key_id)
            if outcome is not None:
                break
            # the attempt died against an unreachable node: the client
            # waits out its budget, drops the dead row and retries
            # through a bootstrap node with exponential backoff
            client.on_timeout(slot)
            if timeout_cycles is None:
                break  # unreachable without timeouts: fail fast
            attempt_start += timeout_cycles * (BACKOFF ** attempt)

        if outcome is None:
            # out of attempts: the request fails; the time burned
            # waiting still counts against the tail and the makespan
            failed_requests += 1
            latency = max(attempt_start - arrival, 0.0)
            failed_hist.record(latency)
            total_latency += latency
            if attempt_start > last_delivery:
                last_delivery = attempt_start
            continue

        delivery, serve_node, served_via_ask, hedged = outcome
        server = servers[serve_node]
        if not served_via_ask and not hedged:
            # even when this request fell back to the backer, the route
            # to learn for an accelerator-owned slot is the accelerator:
            # the next GET must try the fast path first
            client.on_served(
                slot, owner if owner in accel_nodes else serve_node)

        if is_write:
            # the primary acks and synchronously replicates to the
            # slot's current replica set — the copies the oracle audits
            holders = {serve_node} | set(topology.replicas_of(slot))
            record = acked.get(key_id)
            if record is None:
                acked[key_id] = _AckedWrite(holders)
                slot_keys.setdefault(slot, set()).add(key_id)
            else:
                record.holders = holders
                record.had_replica = len(holders) > 1
            acked_writes += 1
            if owner in accel_nodes:
                # write-invalidation: the acked value supersedes
                # whatever copy the accelerator still serves
                servers[owner].invalidate(delivery, wire_key[key_id])
        else:
            record = acked.get(key_id)
            if record is not None and serve_node not in record.holders:
                # a legal route served a key whose latest acked value
                # it does not hold — reading inside a data-loss window
                counters["lost_reads"] += 1

        latency = delivery - arrival
        server.histogram.record(latency)
        server.latency_sum += latency
        total_latency += latency
        if delivery > last_delivery:
            last_delivery = delivery

    migration.drain(count)
    failover.drain(last_delivery)

    # -- the failover oracle's verdict --------------------------------
    failover_violations = 0
    acked_write_losses = 0
    for key_id, record in acked.items():
        if not record.holders.isdisjoint(
                topology.read_set(slot_of[key_id])):
            continue
        if record.had_replica and record.holders:
            # a live node still holds the value but the authoritative
            # read set forgot it: promotion landed on a non-holder
            # while a holder survived — a real failover bug
            failover_violations += 1
        else:
            # unavoidable: no replica existed at ack time, or every
            # holder crashed before re-replication could complete
            acked_write_losses += 1

    # -- fold ----------------------------------------------------------
    merged = LatencyHistogram()
    per_node = []
    for i, server in enumerate(servers):
        merged.merge(server.histogram)
        # a full node's busy cycles are summed over its cores
        cores = 1 if topology.is_accel(i) else len(server.op_cycles)
        entry = {
            "node": i,
            "closed_loop_throughput": node_capacities[i],
            "requests": server.served,
            "busy_fraction": (server.busy / last_delivery / cores
                              if last_delivery else 0.0),
            "mean_latency": (server.latency_sum / server.served
                             if server.served else 0.0),
        }
        if hetero:
            entry["node_class"] = topology.node_class_of(i)
        per_node.append(entry)
    merged.merge(failed_hist)
    if merged.count != count:
        raise ClusterError(
            f"lost requests: accounted {merged.count} of {count}")

    route_hits = sum(c.cache.hits for c in clients if c.cache)
    route_stale = sum(c.cache.stale_hits for c in clients if c.cache)
    route_misses = sum(c.cache.misses for c in clients if c.cache)
    if not config.route_cache:
        # cache-less clients classify every resolution as a miss
        route_misses = count

    resilience = None
    if mitigation.enabled:
        resilience = {
            **mitigation.to_dict(),
            "timeouts": sum(c.timeouts for c in clients),
            "hedges": counters["hedges"],
            "hedge_wins": counters["hedge_wins"],
        }
    hetero_report = None
    if hetero:
        cost_units = fleet_cost(node_classes)
        achieved = count / last_delivery if last_delivery else 0.0
        accel_gets = hetero_counters["accel_gets"]
        fallbacks = {
            "capacity": hetero_counters["fallback_capacity"],
            "set": hetero_counters["fallback_set"],
        }
        hetero_report = {
            "node_types": format_node_types(node_classes),
            "node_classes": list(node_classes),
            "fleet_cost_units": cost_units,
            "accel_keys": DEFAULT_ACCEL_KEYS,
            "accel_gets": accel_gets,
            "accel_hits": hetero_counters["accel_hits"],
            "accel_hit_fraction": (hetero_counters["accel_hits"]
                                   / accel_gets if accel_gets else 0.0),
            "fallbacks": fallbacks,
            "fallback_rate": (sum(fallbacks.values()) / count
                              if count else 0.0),
            "cap_reroutes": sum(c.cap_reroutes for c in clients),
            "capability_checks": capability_checks,
            "capability_violations": capability_violations,
            "cost_normalized_throughput": (achieved / cost_units
                                           if cost_units else 0.0),
            "per_accel": [s.report() for s in servers
                          if isinstance(s, _AccelServer)],
        }

    failover_report = None
    if plan:
        failover_report = {
            **failover.report(),
            "repair_policy": config.repair_policy,
            "write_fraction": WRITE_FRACTION,
            "post_promotion_moved": counters["post_promotion_moved"],
            "lost_reads": counters["lost_reads"],
            "loss_events": counters["loss_events"],
            "loss_window": list(loss_window) if loss_window else None,
        }

    result = ClusterResult(
        nodes=nodes,
        replicas=config.replicas,
        clients=len(clients),
        route_cache=config.route_cache,
        process=process,
        offered_load=config.offered_load,
        arrival_rate=rate,
        total_capacity=total_capacity,
        requests=count,
        makespan=last_delivery,
        achieved_throughput=(count / last_delivery
                             if last_delivery else 0.0),
        mean_latency=total_latency / count if count else 0.0,
        latency=merged.percentiles(),
        histogram=merged.to_dict(),
        per_node=per_node,
        fairness=_jain([s.served for s in servers]),
        route_hits=route_hits,
        route_stale_hits=route_stale,
        route_misses=route_misses,
        moved_redirects=moved_redirects,
        ask_redirects=migration.ask_redirects,
        migration=migration.report(),
        network=network.report(),
        oracle_violations=oracle_violations,
        writes=writes,
        acked_writes=acked_writes,
        acked_write_losses=acked_write_losses,
        failover_violations=failover_violations,
        failed_requests=failed_requests,
        eager_repairs=counters["eager_repairs"],
        resilience=resilience,
        failover=failover_report,
        hetero=hetero_report,
    )
    if oracle_violations:
        raise ClusterError(
            f"cluster routing oracle: {oracle_violations} request(s) "
            f"served by a node without authority over the slot")
    if capability_violations:
        raise HeteroError(
            f"capability oracle: {capability_violations} ineligible "
            f"request(s) reached an accelerator node (writes must be "
            f"dispatched to the backer)")
    if failover_violations:
        raise FailoverError(
            f"failover oracle: {failover_violations} acknowledged "
            f"write(s) with a live replica at ack time did not survive "
            f"to the end of the run")
    return result


# ----------------------------------------------------------------------
# driving the overlay from a RunConfig
# ----------------------------------------------------------------------

def _node_config(config, node: int):
    """The single-node engine config of cluster node ``node``.

    Every :data:`OVERLAY_FIELDS` knob is reset to its ``RunConfig``
    default, which also forces the arrival process closed (the
    cluster overlay *is* the open loop).  Node 0 keeps the run seed
    verbatim — a one-node quiet-network cluster therefore runs the
    exact engine the plain path runs, bit-identical to the golden
    numbers; node ``i`` derives the ``node{i}`` stream so fleets stay
    deterministic per seed.
    """
    seed = config.seed if node == 0 else \
        derive_seed(config.seed, f"node{node}")
    defaults = type(config)()
    return replace(config, seed=seed,
                   **{name: getattr(defaults, name)
                      for name in OVERLAY_FIELDS})


def run_cluster(config):
    """Run a full cluster experiment: per-node engines + the overlay.

    Returns the run-level :class:`~repro.sim.results.RunResult`: for a
    one-node cluster, node 0's result verbatim (cycle-identical to the
    plain engine path); for a fleet, the cross-node aggregate (wall
    clock = slowest node, counters summed, per-node payloads riding in
    ``cores``).  The cluster overlay's :class:`ClusterResult` is
    attached as ``result.cluster`` either way.
    """
    # local imports: repro.sim imports this package's sibling modules
    from ..chaos.report import build_chaos_report
    from ..sim.engine import Engine
    from ..sim.multicore import MultiCoreEngine
    from ..sim.results import aggregate_run_results

    per_node_results = []
    capacities: List[float] = []
    captures: List[Sequence[Sequence[int]]] = []
    node_classes = config.node_classes or (NODE_CLASS_FULL,) * config.nodes
    for node in range(config.nodes):
        if node_classes[node] == NODE_CLASS_ACCEL:
            # accelerator nodes run no software engine: their
            # closed-loop capacity is the lookup pipeline's initiation
            # interval for a canonical resident GET, and they
            # contribute no op-cycle captures
            capacities.append(
                1.0 / lookup_interval_cycles(CANON_KEY_BYTES,
                                             config.value_size))
            captures.append(())
            continue
        engine = Engine(_node_config(config, node))
        mc = MultiCoreEngine(engine, capture_op_cycles=True)
        outcome = mc.run()
        result = outcome.aggregate
        if mc.injector is not None:
            result.chaos = build_chaos_report(engine, mc.injector)
        per_node_results.append(result)
        capacities.append(result.throughput)
        captures.append(outcome.op_cycles)

    cluster = simulate_cluster(config, capacities, captures)
    if config.nodes == 1:
        result = per_node_results[0]
        # the node ran under the stripped config; the run-level label
        # should still say "cluster anchor" (e.g. ...%1n+net300)
        result.label = config.label
    else:
        result = aggregate_run_results(per_node_results, config.label,
                                       config.frontend)
    result.cluster = cluster.to_dict()
    return result
