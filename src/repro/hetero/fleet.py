"""The ``--node-types`` fleet grammar and fleet-level cost accounting.

A heterogeneous fleet is declared as a ``+``-joined list of
``<count><class>`` terms — ``4full+4accel`` — expanded in order into
one node class per node id (so ``2full+1accel`` makes nodes 0 and 1
full and node 2 an accelerator).  The grammar is eagerly parsed
(:class:`~repro.errors.HeteroError`, exit 13) exactly like the chaos
fault-plan grammar: a bad spec dies at config time with one clean
line, never mid-run.

Every fleet needs at least one full node: accelerators are GET-only
read caches in front of a full backer, so an all-accelerator fleet
could not serve a single write.

Cost units are the currency of the asymmetric-scaling argument: a
lookup accelerator is a hash pipeline plus a fixed SRAM, a sliver of a
full node's silicon and DRAM, so a fleet's cost is the sum of its
members' units and throughput is compared *per unit*, not per node.
:data:`ACCEL_NODE_COST_UNITS` is pinned from the Table-I-style budget
in :func:`repro.core.hwcost.kv_accel_cost` (see DESIGN.md section 14).
"""

from __future__ import annotations

import re
from typing import Dict, Sequence, Tuple

from ..errors import HeteroError

__all__ = [
    "ACCEL_NODE_COST_UNITS",
    "ACCEL_SLOT_WEIGHT",
    "FULL_NODE_COST_UNITS",
    "NODE_CLASS_ACCEL",
    "NODE_CLASS_FULL",
    "NODE_CLASSES",
    "class_counts",
    "fleet_cost",
    "format_node_types",
    "has_accel",
    "parse_node_types",
    "slot_weight",
]

NODE_CLASS_FULL = "full"
NODE_CLASS_ACCEL = "accel"
NODE_CLASSES = (NODE_CLASS_FULL, NODE_CLASS_ACCEL)

_TERM_RE = re.compile(r"^(\d*)(full|accel)$")

#: a full Redis-model node is the cost baseline
FULL_NODE_COST_UNITS = 1.0

#: relative cost of a lookup-accelerator node: the budget in
#: :func:`repro.core.hwcost.kv_accel_cost` is dominated by the on-chip
#: key/value SRAM — a quarter of a full node's cost at the default
#: 4096-entry capacity, with no DRAM, no cores, no kernel
ACCEL_NODE_COST_UNITS = 0.25

_COST_UNITS = {
    NODE_CLASS_FULL: FULL_NODE_COST_UNITS,
    NODE_CLASS_ACCEL: ACCEL_NODE_COST_UNITS,
}

#: slot-assignment weight of an accelerator node relative to a full
#: node.  Provisioning follows capability: the lookup pipeline's
#: initiation interval for a canonical small-key GET is ~4x shorter
#: than a full node's mean per-op service time, so an accelerator
#: takes a proportionally larger primary-slot share — the fleet is
#: *sized* by capacity, exactly like weighted shards in a production
#: Redis Cluster.  Fallback traffic (writes and capacity misses)
#: still lands on full backers, which own proportionally fewer slots
#: and so have the headroom to absorb it.
ACCEL_SLOT_WEIGHT = 4


def slot_weight(node_class: str) -> int:
    """The initial-assignment slot weight of one node class."""
    return ACCEL_SLOT_WEIGHT if node_class == NODE_CLASS_ACCEL else 1


def parse_node_types(spec: str) -> Tuple[str, ...]:
    """Expand a ``--node-types`` spec into one class per node id.

    ``"4full+4accel"`` -> ``("full",) * 4 + ("accel",) * 4``.  The
    count defaults to 1 (``"full+accel"`` is a two-node fleet).
    Raises :class:`HeteroError` for empty specs, unknown classes, zero
    counts, or a fleet with no full node.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise HeteroError(
            "empty node-types spec; expected e.g. '4full+4accel'")
    classes: list = []
    for term in spec.strip().split("+"):
        match = _TERM_RE.match(term.strip())
        if match is None:
            raise HeteroError(
                f"bad node-types term {term.strip()!r}; expected "
                f"'<count><class>' with class one of "
                f"{'/'.join(NODE_CLASSES)} (e.g. '4full+4accel')")
        count = int(match.group(1)) if match.group(1) else 1
        if count < 1:
            raise HeteroError(
                f"node-types term {term.strip()!r} asks for zero "
                f"nodes; counts must be >= 1")
        classes.extend([match.group(2)] * count)
    if NODE_CLASS_FULL not in classes:
        raise HeteroError(
            f"node-types spec {spec!r} has no full node; accelerator "
            f"nodes are GET-only and need at least one full backer")
    return tuple(classes)


def class_counts(classes: Sequence[str]) -> Dict[str, int]:
    """Node count per class, zero-filled over :data:`NODE_CLASSES`."""
    counts = {cls: 0 for cls in NODE_CLASSES}
    for cls in classes:
        counts[cls] += 1
    return counts


def format_node_types(classes: Sequence[str]) -> str:
    """The canonical spec for a class list: ``'2full+1accel'``."""
    counts = class_counts(classes)
    return "+".join(f"{counts[cls]}{cls}" for cls in NODE_CLASSES
                    if counts[cls])


def has_accel(classes: Sequence[str]) -> bool:
    """Whether the fleet contains any accelerator node."""
    return NODE_CLASS_ACCEL in classes


def fleet_cost(classes: Sequence[str]) -> float:
    """Total fleet cost in full-node units (the denominator of
    cost-normalized throughput)."""
    return sum(_COST_UNITS[cls] for cls in classes)
