"""Experiment configuration.

One :class:`RunConfig` describes one simulated run: the program (Redis or
one of the four kernel benchmarks), the workload, the lookup front-end,
and the machine.  Defaults follow the paper's setup scaled down per
DESIGN.md section 1: the paper's 10 M keys / 512 MB STLT regime is
preserved as *ratios* (rows per key, footprint over TLB reach).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional, Tuple

from ..chaos.schedule import parse_fault
from ..cluster.failover import parse_node_fault
from ..errors import ConfigError, FaultInjectionError, HeteroError
from ..hetero.fleet import class_counts, has_accel, parse_node_types
from ..params import SCALED_MACHINE, MachineParams, machine_from_dict

PROGRAMS = ("redis", "unordered_map", "dense_hash_map", "ordered_map", "btree")
FRONTENDS = ("baseline", "slb", "stlt", "stlt_va", "stlt_sw")
#: translation-acceleration backends (repro.accel, DESIGN.md section 12):
#: "none"      — no accelerator; the plain frontend path;
#: "stlt"      — the paper's STLT/STB/SPTW fast path behind the accel
#:               interface (bit-identical to frontend="stlt");
#: "victima"   — Victima-style TLB-reach extension parking translations
#:               in underutilized L2/L3 capacity (PAPERS.md: Victima);
#: "pcax"      — PC-indexed translation table fed by op-site pseudo-PCs
#:               (PAPERS.md: PCAX);
#: "revelator" — software-guided hash-based *speculative* translation:
#:               data fetch issued in parallel with the walk, validation
#:               charged, misspeculation penalised (PAPERS.md: Revelator)
ACCELS = ("none", "stlt", "victima", "pcax", "revelator")
DISTRIBUTIONS = ("zipf", "latest", "uniform")
#: request-arrival models: the classic closed loop (one op in flight
#: per core, no arrival clock) or an open-loop process served by the
#: repro.svc layer (a test pins these against the svc factories)
ARRIVAL_PROCESSES = ("closed", "poisson", "mmpp")
#: open-loop request-to-core dispatch policies (repro.svc.dispatch)
DISPATCH_POLICIES = ("round_robin", "key_hash", "jsq")
#: execution modes of the engine loop (DESIGN.md section 11):
#: "reference" — the per-op object-traversal loop, unchanged semantics;
#: "batched"   — the fused array-backed fast path, bit-identical to
#:               reference (pinned by the golden + differential tests)
EXEC_MODES = ("reference", "batched")

#: paper regime: the 512 MB STLT holds 32 M rows for 10 M keys — 3.2 rows
#: per key (1.25 keys per 4-way set), which is where Table V's conflict
#: miss rates come from; the default table size targets the same ratio
DEFAULT_ROWS_PER_KEY = 3.2


def _nearest_pow2(n: int) -> int:
    p = 1
    while p < n:
        p <<= 1
    return p if (p - n) <= (n - p // 2) else p // 2


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs; hashable and reproducible."""

    program: str = "unordered_map"
    frontend: str = "baseline"
    distribution: str = "zipf"
    value_size: int = 64
    num_keys: int = 100_000
    #: measured operations (the paper simulates 128 k key accesses)
    measure_ops: int = 40_000
    #: warm-up operations; None -> 4x measured, the paper's 80/20 split
    warmup_ops: Optional[int] = None
    stlt_rows: Optional[int] = None
    stlt_ways: int = 4
    fast_hash: str = "xxh3"
    prefetchers: Tuple[str, ...] = ()
    #: simulated cores, each streaming its own workload against the
    #: shared store; ``measure_ops`` counts *per core*, so the aggregate
    #: measures num_cores x measure_ops operations
    num_cores: int = 1
    #: request-arrival model: "closed" (the classic closed loop) or an
    #: open-loop process ("poisson", "mmpp") whose timestamped requests
    #: queue on the cores through repro.svc
    arrival_process: str = "closed"
    #: open loop only: offered load as a fraction of the measured
    #: closed-loop capacity (1.0 = arrivals at exactly the rate the
    #: cores can serve; beyond saturation queues grow without bound)
    offered_load: float = 0.7
    #: open loop only: how arriving requests map to cores
    dispatch_policy: str = "round_robin"
    #: open loop only: requests to simulate; None -> one measured
    #: closed-loop window (num_cores x measure_ops)
    service_requests: Optional[int] = None
    #: chaos: probability that an adverse OS event (page migration,
    #: record realloc, context switch, unmap/remap, STLTresize) fires
    #: in any (operation, core) slot; 0 disables churn — the engine
    #: then never constructs an injector (bit-identity pinned by the
    #: golden tests)
    churn_rate: float = 0.0
    #: chaos: per-core performance faults in the repro.chaos grammar,
    #: e.g. "slowdown:core=1,factor=4" or "stall:core=0,cycles=300"
    #: with optional "start=0.25,stop=0.75" windows; parsed (and
    #: rejected) eagerly at config time
    fault_plan: Tuple[str, ...] = ()
    #: mitigation: client-side timeout as a multiple of the mean
    #: measured service time; None disables timeouts (and with them
    #: retries)
    svc_timeout: Optional[float] = None
    #: mitigation: bounded retries after a timeout (no-op without
    #: ``svc_timeout``); the final attempt always runs to completion,
    #: so no request is ever lost
    svc_retries: int = 0
    #: mitigation: timeout multiplier per retry (exponential backoff)
    svc_backoff: float = 2.0
    #: mitigation: hedge delay as a multiple of the mean service time —
    #: a second copy of a still-queued request is dispatched to the
    #: least-loaded other core after this long; None disables hedging
    svc_hedge: Optional[float] = None
    #: mitigation: SLO-aware fallback — arrivals route around cores
    #: whose backlog exceeds the fleet's by the fallback threshold
    svc_fallback: bool = False
    #: cluster: number of sharded nodes, each a full multi-core engine
    #: (1 = the plain single-node path, untouched by the cluster layer)
    nodes: int = 1
    #: cluster: replica nodes per hash slot (ring successors of the
    #: primary); reads may be served from replicas when
    #: ``replica_reads`` is set
    replicas: int = 0
    #: cluster: whether clients keep a slot -> node route cache (the
    #: cluster-scale STLT); off = every request bootstraps through an
    #: arbitrary node and eats a MOVED hop
    route_cache: bool = True
    #: cluster: requests a client pipelines per batch window (followers
    #: share the batch head's propagation delay)
    client_batch: int = 1
    #: cluster: serve GETs from slot replicas (rotating over the
    #: primary + replicas) instead of the primary only
    replica_reads: bool = False
    #: cluster: per-request probability that a live slot migration
    #: starts (scheduled through the repro.chaos machinery; requests
    #: in the window take ASK redirects, cached routes go stale on
    #: commit); 0 disables migration entirely.  On a one-node fleet
    #: every drawn event counts as skipped — there is nowhere to move
    #: a slot to
    migrate_rate: float = 0.0
    #: cluster: client <-> node network round-trip in core cycles;
    #: 0 = the quiet network (all transfers free — the bit-identity
    #: anchor for one-node cluster runs)
    net_rtt_cycles: float = 0.0
    #: cluster: node-fault plan in the repro.cluster.failover grammar,
    #: e.g. "crash:node=1,at=0.4", "restart:node=1,at=0.8",
    #: "partition:node=2,start=0.3,stop=0.6",
    #: "degrade:node=0,factor=4,start=0.2,stop=0.5" or
    #: "storm:rate=0.0005"; parsed (and rejected) eagerly at config
    #: time, inert on the plain single-node path
    node_fault_plan: Tuple[str, ...] = ()
    #: cluster: failure-detector timeout in cycles of simulated time
    #: between a primary going dark and its replica being promoted
    failover_detect_cycles: float = 4000.0
    #: cluster: how surviving clients' route caches heal after a
    #: promotion — "lazy" (stale rows die by MOVED on next touch, the
    #: address-centric default) or "eager" (every committed ownership
    #: change broadcasts invalidations into all client caches
    #: immediately, the shootdown analogue)
    repair_policy: str = "lazy"
    #: cluster: per-attempt client timeout as a multiple of one healthy
    #: exchange (mean service time + RTT); None = no explicit timeout
    #: (fault-plan runs then default to a generous multiple, quiet runs
    #: to none at all)
    cluster_timeout: Optional[float] = None
    #: cluster: hedge delay for reads, as a multiple of one healthy
    #: exchange — a second copy fires against a reachable replica when
    #: the primary path is dead or slower than this; None disables
    #: cross-node hedging
    cluster_hedge: Optional[float] = None
    #: cluster: heterogeneous fleet declaration in the repro.hetero
    #: grammar, e.g. "4full+4accel" — one class per node id, expanded
    #: in order.  None (or an all-full spec) keeps every node a full
    #: Redis-model engine; parsed (and rejected) eagerly at config
    #: time.  On a run that builds a fleet the spec's node count must
    #: equal ``nodes``
    node_types: Optional[str] = None
    #: hetero: fraction of the keyspace modeled as *oversized on the
    #: wire* (above the accelerator's 255-byte key limit), marked
    #: deterministically per key id; such GETs always fall back to the
    #: slot's full-class backer.  Inert on homogeneous fleets
    hetero_big_key_fraction: float = 0.0
    #: translation-acceleration backend (see ACCELS); orthogonal to
    #: ``frontend`` but only meaningful on the baseline frontend — the
    #: non-"none" backends replace (not stack on) the key-level fast
    #: paths, so combining them is rejected at config time
    accel: str = "none"
    #: how the engine loop executes (see EXEC_MODES): the two modes are
    #: bit-identical by contract.  Content-hashed like every other
    #: field, but deliberately absent from ``label`` — the label names
    #: the experiment, and both modes produce the same numbers
    exec_mode: str = "reference"
    seed: int = 1
    #: the ratio-preserving scaled machine (params.scaled_machine); pass
    #: params.DEFAULT_MACHINE for the literal Table III configuration
    machine: MachineParams = field(default_factory=lambda: SCALED_MACHINE)

    def __post_init__(self) -> None:
        if self.program not in PROGRAMS:
            raise ConfigError(f"unknown program {self.program!r}")
        if self.frontend not in FRONTENDS:
            raise ConfigError(f"unknown frontend {self.frontend!r}")
        if self.distribution not in DISTRIBUTIONS:
            raise ConfigError(f"unknown distribution {self.distribution!r}")
        if self.num_keys <= 0 or self.measure_ops <= 0:
            raise ConfigError("key and operation counts must be positive")
        if self.num_cores < 1:
            raise ConfigError("need at least one core")
        if self.arrival_process not in ARRIVAL_PROCESSES:
            raise ConfigError(
                f"unknown arrival process {self.arrival_process!r}")
        if self.dispatch_policy not in DISPATCH_POLICIES:
            raise ConfigError(
                f"unknown dispatch policy {self.dispatch_policy!r}")
        if not 0.0 < self.offered_load <= 4.0:
            raise ConfigError("offered load must be in (0, 4]")
        if self.service_requests is not None and self.service_requests <= 0:
            raise ConfigError("service request count must be positive")
        for name in self.prefetchers:
            if name not in ("stream", "vldp", "tlb_distance"):
                raise ConfigError(f"unknown prefetcher {name!r}")
        if not 0.0 <= self.churn_rate <= 1.0:
            raise ConfigError("churn rate must be within [0, 1]")
        for spec in self.fault_plan:
            fault = parse_fault(spec)  # typos fail at config time
            if fault.core >= self.num_cores:
                raise FaultInjectionError(
                    f"fault {spec!r} targets core {fault.core} but the "
                    f"run has {self.num_cores} core(s)")
        if self.svc_timeout is not None and self.svc_timeout <= 0:
            raise ConfigError("service timeout must be positive")
        if self.svc_retries < 0:
            raise ConfigError("service retries cannot be negative")
        if self.svc_backoff < 1.0:
            raise ConfigError("service backoff multiplier must be >= 1")
        if self.svc_hedge is not None and self.svc_hedge <= 0:
            raise ConfigError("service hedge delay must be positive")
        if self.nodes < 1:
            raise ConfigError("a cluster needs at least one node")
        if self.replicas < 0:
            raise ConfigError("replica count cannot be negative")
        if self.replicas and self.replicas >= self.nodes \
                and self.cluster_enabled:
            # on the plain single-node path the knob is inert; a run
            # that actually builds a topology needs replicas < nodes
            raise ConfigError(
                f"{self.replicas} replica(s) per slot need at least "
                f"{self.replicas + 1} nodes (got {self.nodes})")
        if self.client_batch < 1:
            raise ConfigError("client batch must be >= 1")
        if not 0.0 <= self.migrate_rate <= 1.0:
            raise ConfigError("migration rate must be within [0, 1]")
        if self.net_rtt_cycles < 0:
            raise ConfigError("network RTT cannot be negative")
        storms = 0
        for spec in self.node_fault_plan:
            fault = parse_node_fault(spec)  # typos fail at config time
            if fault.kind == "storm":
                storms += 1
                if storms > 1:
                    raise FaultInjectionError(
                        "at most one storm: spec per node fault plan")
            elif fault.node >= self.nodes and self.cluster_enabled:
                # on the plain single-node path the plan is inert; a
                # run that actually builds a fleet needs real targets
                raise FaultInjectionError(
                    f"node fault {spec!r} targets node {fault.node} "
                    f"but the run has {self.nodes} node(s)")
        if self.failover_detect_cycles <= 0:
            raise ConfigError("failure detection window must be positive")
        if self.repair_policy not in ("lazy", "eager"):
            raise ConfigError(
                f"unknown repair policy {self.repair_policy!r}; "
                f"choose 'lazy' or 'eager'")
        if self.cluster_timeout is not None and self.cluster_timeout <= 0:
            raise ConfigError("cluster timeout must be positive")
        if self.cluster_hedge is not None and self.cluster_hedge <= 0:
            raise ConfigError("cluster hedge delay must be positive")
        if self.node_types is not None:
            classes = parse_node_types(self.node_types)  # grammar fails
            if self.cluster_enabled and len(classes) != self.nodes:
                # on the plain single-node path the knob is inert; a
                # run that builds a fleet needs the counts to agree
                raise HeteroError(
                    f"node-types spec {self.node_types!r} names "
                    f"{len(classes)} node(s) but the run has "
                    f"{self.nodes}")
            if self.cluster_enabled and has_accel(classes):
                num_full = class_counts(classes)["full"]
                if self.replicas >= num_full:
                    raise HeteroError(
                        f"{self.replicas} replica(s) per slot need at "
                        f"least {self.replicas + 1} full nodes (only "
                        f"full nodes hold durable copies); "
                        f"{self.node_types!r} has {num_full}")
        if not 0.0 <= self.hetero_big_key_fraction <= 1.0:
            raise ConfigError(
                "oversized-key fraction must be within [0, 1]")
        if self.accel not in ACCELS:
            raise ConfigError(
                f"unknown accel {self.accel!r}; choose one of {ACCELS!r}")
        if self.accel != "none" and self.frontend != "baseline":
            # the accel axis replaces the key-level fast paths; stacking
            # an accelerator on top of stlt/slb would double-count the
            # very cycles the head-to-head sweep compares
            raise ConfigError(
                f"accel={self.accel!r} requires frontend='baseline' "
                f"(got {self.frontend!r})")
        if self.exec_mode not in EXEC_MODES:
            raise ConfigError(
                f"unknown exec mode {self.exec_mode!r}; "
                f"choose one of {EXEC_MODES!r}")

    # -- derived defaults -------------------------------------------------

    @property
    def effective_warmup_ops(self) -> int:
        if self.warmup_ops is not None:
            return self.warmup_ops
        return 4 * self.measure_ops

    @property
    def total_ops(self) -> int:
        return self.effective_warmup_ops + self.measure_ops

    @property
    def effective_stlt_rows(self) -> int:
        if self.stlt_rows is not None:
            return self.stlt_rows
        return _nearest_pow2(int(self.num_keys * DEFAULT_ROWS_PER_KEY))

    @property
    def effective_accel_rows(self) -> int:
        """Accel table sets (victima, pcax), sized to the page footprint.

        A scaled workload touches roughly ``num_keys / 8`` distinct data
        pages (records plus index nodes at the default value sizes), so
        this gives the victima/pcax structures TLB-reach headroom
        comparable to the STLT's 3.2-rows-per-key regime without handing
        them unlimited capacity.
        """
        return _nearest_pow2(max(16, self.num_keys // 8))

    @property
    def effective_service_requests(self) -> int:
        """Open-loop requests: explicit count, or one measured window."""
        if self.service_requests is not None:
            return self.service_requests
        return self.num_cores * self.measure_ops

    @property
    def chaos_enabled(self) -> bool:
        """Whether this run constructs a chaos injector at all."""
        return self.churn_rate > 0.0 or bool(self.fault_plan)

    @property
    def cluster_enabled(self) -> bool:
        """Whether the run goes through the cluster overlay at all.

        A quiet-network single node (``nodes == 1`` and
        ``net_rtt_cycles == 0``) stays on the plain single-node path
        (pinned bit-identical by the golden tests) even when other
        cluster-only knobs sit at non-defaults — they have no one-node
        meaning.  A non-zero network RTT puts even a one-node run
        through the overlay so scaling sweeps get a like-for-like
        nodes=1 anchor (same client/network path, one shard).
        """
        return self.nodes > 1 or self.net_rtt_cycles > 0

    @property
    def effective_cluster_requests(self) -> int:
        """Cluster overlay requests: explicit count, or one measured
        window per node (``nodes x num_cores x measure_ops``)."""
        if self.service_requests is not None:
            return self.service_requests
        return self.nodes * self.num_cores * self.measure_ops

    @property
    def node_classes(self) -> Optional[Tuple[str, ...]]:
        """Parsed ``node_types`` classes (one per node id), or None
        for a homogeneous default fleet."""
        if self.node_types is None:
            return None
        return parse_node_types(self.node_types)

    @property
    def hetero_enabled(self) -> bool:
        """Whether the run builds a mixed fleet with accelerator
        nodes.  An all-full ``node_types`` spec builds none, so it
        runs exactly like no spec at all (one request path for every
        cluster run; this flag only shapes the run label)."""
        classes = self.node_classes
        return (self.cluster_enabled and classes is not None
                and has_accel(classes))

    @property
    def mitigation_enabled(self) -> bool:
        """Whether the open-loop service layer runs resilience logic."""
        return (self.svc_timeout is not None
                or self.svc_hedge is not None
                or self.svc_fallback)

    @property
    def slow_hash(self) -> str:
        """Redis hashes with SipHash; the kernels default to Murmur."""
        return "siphash" if self.program == "redis" else "murmur"

    def with_frontend(self, frontend: str) -> "RunConfig":
        return replace(self, frontend=frontend)

    # -- serialisation ----------------------------------------------------

    def to_dict(self) -> dict:
        """Every field (including the full machine) as plain JSON-native
        data — tuples become lists, so the dict compares equal to a
        JSON round trip of itself."""
        data = asdict(self)
        data["prefetchers"] = list(data["prefetchers"])
        data["fault_plan"] = list(data["fault_plan"])
        data["node_fault_plan"] = list(data["node_fault_plan"])
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Inverse of :meth:`to_dict`; rejects unknown keys loudly."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown RunConfig field(s): {sorted(unknown)!r}")
        kwargs = dict(data)
        if "prefetchers" in kwargs:
            kwargs["prefetchers"] = tuple(kwargs["prefetchers"])
        if "fault_plan" in kwargs:
            kwargs["fault_plan"] = tuple(kwargs["fault_plan"])
        if "node_fault_plan" in kwargs:
            kwargs["node_fault_plan"] = tuple(kwargs["node_fault_plan"])
        if "machine" in kwargs and isinstance(kwargs["machine"], dict):
            kwargs["machine"] = machine_from_dict(kwargs["machine"])
        return cls(**kwargs)

    @property
    def content_hash(self) -> str:
        """Stable content hash over *all* fields (machine included).

        This is the cache/store key of ``repro.exp``: any change to any
        field — including a nested machine parameter — produces a new
        key, so a stale result can never be served for a different
        configuration.  (The old benchmark cache hand-listed fields and
        silently omitted ``machine``.)
        """
        return config_hash(self)

    @property
    def label(self) -> str:
        # an accelerated run names its backend where the frontend would
        # go (accel requires frontend="baseline", so nothing is hidden)
        fe = (self.frontend if self.accel == "none"
              else f"accel-{self.accel}")
        base = (
            f"{self.program}/{fe}/{self.distribution}"
            f"-{self.value_size}B"
        )
        if self.num_cores > 1:
            base = f"{base}x{self.num_cores}c"
        if self.arrival_process != "closed":
            base = f"{base}@{self.arrival_process}-{self.offered_load:g}"
            if self.dispatch_policy != "round_robin":
                base = f"{base}-{self.dispatch_policy}"
        if self.churn_rate > 0.0:
            base = f"{base}~churn{self.churn_rate:g}"
        if self.fault_plan:
            base = f"{base}~fault{len(self.fault_plan)}"
        if self.mitigation_enabled:
            base = f"{base}+mit"
        if self.cluster_enabled:
            base = f"{base}%{self.nodes}n"
            if self.replicas:
                base = f"{base}-r{self.replicas}"
            if not self.route_cache:
                base = f"{base}-norc"
            if self.client_batch > 1:
                base = f"{base}-b{self.client_batch}"
            if self.replica_reads:
                base = f"{base}-rr"
            if self.migrate_rate > 0.0:
                base = f"{base}~mig{self.migrate_rate:g}"
            if self.net_rtt_cycles > 0.0:
                base = f"{base}+net{self.net_rtt_cycles:g}"
            if self.node_fault_plan:
                base = f"{base}~nfault{len(self.node_fault_plan)}"
            if self.repair_policy != "lazy":
                base = f"{base}+eager"
            if self.cluster_timeout is not None \
                    or self.cluster_hedge is not None:
                base = f"{base}+cmit"
            if self.hetero_enabled:
                # an all-full node_types spec deliberately leaves the
                # label (and the result payload) untouched: it *is*
                # the homogeneous run, bit for bit
                counts = class_counts(self.node_classes)
                base = f"{base}^{counts['full']}f{counts['accel']}a"
                if self.hetero_big_key_fraction > 0.0:
                    base = f"{base}~bk{self.hetero_big_key_fraction:g}"
        return base


def config_hash(config: RunConfig) -> str:
    """SHA-256 over the canonical JSON of ``config.to_dict()``.

    Canonical means sorted keys and no whitespace, so the digest is
    independent of field ordering and stable across processes and
    Python versions (no ``repr()`` involved).  Tuples serialise as JSON
    arrays, which is fine: the encoding only needs to be injective over
    configurations, not reversible (the store keeps the full dict
    alongside the key).
    """
    canonical = json.dumps(config.to_dict(), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
