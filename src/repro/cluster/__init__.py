"""Sharded multi-node cluster model over the single-node simulator.

The paper accelerates one server's lookup path; production key-value
stores run *fleets* of such servers behind hash-slot sharding (Redis
Cluster's 16384 slots).  This package scales the reproduction out: each
node is a full :class:`~repro.sim.multicore.MultiCoreEngine` (private
caches, shared STLT/IPB, measured per-op service cycles), and a
discrete-event overlay routes an open-loop request stream across the
fleet through client-side route caches, a seeded network model, and
live slot migration.

The cluster layer deliberately mirrors the paper's address-centric
design one level up the stack (DESIGN.md section 10):

====================  =======================================
node level (paper)    cluster level (this package)
====================  =======================================
STLT row (VA, PTE)    route-cache row (slot -> node)
stale PTE             stale route after a slot move
semantic validation   MOVED redirect from the wrong node
IPB + lazy scrub      ASK forwarding during live migration
STLTresize cold set   route-cache invalidation on MOVED
====================  =======================================

Modules
-------
* :mod:`~repro.cluster.topology`  — 16384-slot sharding, replica
  placement, minimal-remap join/leave, slot moves;
* :mod:`~repro.cluster.network`   — seeded latency/bandwidth model
  with per-link contention queues;
* :mod:`~repro.cluster.client`    — client population with per-client
  route caches and the capability pre-route;
* :mod:`~repro.cluster.migration` — live slot migration scheduled
  through the :mod:`repro.chaos` machinery (ASK-style redirects);
* :mod:`~repro.cluster.failover`  — node-fault injection (crashes,
  partitions, degradation, seeded storms), failure detection, and
  replica promotion (DESIGN.md section 13);
* :mod:`~repro.cluster.service`   — the cluster event loop and
  :class:`~repro.cluster.service.ClusterResult` (merged latency
  histograms, per-node fairness, route/redirect/failover telemetry,
  the routing and acked-write oracles).

Everything is a pure function of ``RunConfig.seed``: node *i* derives
its engine seed from the ``node{i}`` namespace (node 0 keeps the run
seed verbatim, so a one-node quiet-network cluster is bit-identical to
the plain engine — pinned against the golden numbers).
"""

from .client import ClusterClient, RouteCache
from .failover import FailoverScheduler, NodeFaultSpec, parse_node_fault
from .migration import MigrationScheduler
from .network import ClusterNetwork
from .service import ClusterResult, run_cluster, simulate_cluster
from .topology import NUM_SLOTS, ClusterTopology, slot_for_key

__all__ = [
    "NUM_SLOTS",
    "ClusterClient",
    "ClusterNetwork",
    "ClusterResult",
    "ClusterTopology",
    "FailoverScheduler",
    "MigrationScheduler",
    "NodeFaultSpec",
    "RouteCache",
    "parse_node_fault",
    "run_cluster",
    "simulate_cluster",
    "slot_for_key",
]
