"""repro.hetero — heterogeneous fleets with KV-lookup accelerator nodes.

The paper's address-centric thesis taken one step past the per-core
front-end: a *standalone* lookup accelerator as a node class.  An
accelerator node is the hwkvstore/McAccel pipeline — Pearson
dual-hashed on-chip key memory, explicit reserve/associate/write
management instructions, a 255-byte key limit, read/write modes with a
drain cost — serving eligible small-key GETs at hash-pipeline speed
for a fraction of a full node's cost.  Everything else (writes and
capacity misses) falls back deterministically to a full Redis-model
node.

* :mod:`repro.hetero.pearson`    — frozen dual Pearson hash tables;
* :mod:`repro.hetero.accel_node` — key-memory state machine + the
  management-instruction cost model;
* :mod:`repro.hetero.fleet`      — the ``--node-types`` grammar
  (``4full+4accel``), node-class cost units and fleet cost accounting.

Dispatch itself lives in :mod:`repro.cluster` (topology knows each
node's class, the client pre-routes and the service layer fences);
this package is the leaf model with no cluster dependencies.
"""

from .accel_node import (
    DEFAULT_ACCEL_KEYS,
    KEY_LIMIT_BYTES,
    MODE_SWITCH_DRAIN_CYCLES,
    AccelNodeModel,
    install_cycles,
    lookup_interval_cycles,
    lookup_latency_cycles,
)
from .fleet import (
    ACCEL_NODE_COST_UNITS,
    FULL_NODE_COST_UNITS,
    NODE_CLASS_ACCEL,
    NODE_CLASS_FULL,
    NODE_CLASSES,
    class_counts,
    fleet_cost,
    format_node_types,
    has_accel,
    parse_node_types,
)
from .pearson import dual_hash, pearson_hash

__all__ = [
    "ACCEL_NODE_COST_UNITS",
    "AccelNodeModel",
    "DEFAULT_ACCEL_KEYS",
    "FULL_NODE_COST_UNITS",
    "KEY_LIMIT_BYTES",
    "MODE_SWITCH_DRAIN_CYCLES",
    "NODE_CLASSES",
    "NODE_CLASS_ACCEL",
    "NODE_CLASS_FULL",
    "class_counts",
    "dual_hash",
    "fleet_cost",
    "format_node_types",
    "has_accel",
    "install_cycles",
    "lookup_interval_cycles",
    "lookup_latency_cycles",
    "parse_node_types",
    "pearson_hash",
]
