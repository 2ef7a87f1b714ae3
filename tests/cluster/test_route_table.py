"""The topology's route table is never stale.

:class:`~repro.cluster.topology.ClusterTopology` answers
``replicas_of`` / ``read_set`` / ``write_authority`` /
``durable_set`` from a per-slot route table and ``full_nodes`` from a
per-ring-generation cache.  The routing oracle of the cluster overlay
reads the same table, so it cannot catch a stale entry; this module
can.  After every step of an arbitrary join / leave / crash / restart /
``move_slot`` script — and inside every owner-change observer call —
each cached answer must equal the uncached ring walk kept below as the
reference.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import ClusterTopology
from repro.hetero.fleet import NODE_CLASS_ACCEL, NODE_CLASS_FULL
from tests.cluster.test_hetero import FLEETS
from tests.cluster.test_topology_properties import FAULT_OP

SLOTS = 128


# ----------------------------------------------------------------------
# the reference: walk the ring on every query
# ----------------------------------------------------------------------

def _is_accel(topo, node):
    return topo.node_class_of(node) == NODE_CLASS_ACCEL


def walk_full_nodes(topo):
    return [n for n in topo.node_ids if not _is_accel(topo, n)]


def walk_replicas(topo, slot):
    if not topo.replicas:
        return ()
    ring = topo.node_ids
    start = ring.index(topo.slot_owner[slot])
    n = len(ring)
    if not topo.accel_nodes:
        return tuple(ring[(start + k) % n]
                     for k in range(1, min(topo.replicas, n - 1) + 1))
    out = []
    for k in range(1, n):
        node = ring[(start + k) % n]
        if not _is_accel(topo, node):
            out.append(node)
            if len(out) == topo.replicas:
                break
    return tuple(out)


def walk_backer(topo, slot):
    owner = topo.slot_owner[slot]
    if not _is_accel(topo, owner):
        return owner
    full = walk_full_nodes(topo)
    return full[slot % len(full)]


def walk_read_set(topo, slot):
    base = (topo.slot_owner[slot],) + walk_replicas(topo, slot)
    if topo.accel_nodes:
        backer = walk_backer(topo, slot)
        if backer not in base:
            base = base + (backer,)
    return base


def walk_durable_set(topo, slot):
    return {walk_backer(topo, slot)} | set(walk_replicas(topo, slot))


def assert_slot_matches_walk(topo, slot):
    assert topo.replicas_of(slot) == walk_replicas(topo, slot)
    assert topo.read_set(slot) == walk_read_set(topo, slot)
    assert topo.write_authority(slot) == walk_backer(topo, slot)
    assert topo.durable_set(slot) == walk_durable_set(topo, slot)


def assert_table_matches_walk(topo):
    assert list(topo.full_nodes()) == walk_full_nodes(topo)
    for slot in range(topo.num_slots):
        assert_slot_matches_walk(topo, slot)


# ----------------------------------------------------------------------
# scripts
# ----------------------------------------------------------------------

#: ("move", slot, pick) = commit a migration of ``slot`` to a live node
MOVE_OP = st.tuples(st.just("move"),
                    st.integers(min_value=0, max_value=SLOTS - 1),
                    st.integers(min_value=0, max_value=31))
ROUTE_SCRIPT = st.lists(st.one_of(FAULT_OP, MOVE_OP), max_size=16)


def _last_full(topo, node):
    """Whether removing ``node`` would leave a mixed fleet without a
    full node (the topology refuses or breaks; no scheduler asks)."""
    return (bool(topo.accel_nodes) and not _is_accel(topo, node)
            and len(walk_full_nodes(topo)) == 1)


def _step(topo, op):
    """Apply one script op; skip ops illegal in the current state."""
    live = topo.node_ids
    if op is None:
        topo.add_node()
    elif isinstance(op, int):
        leaver = live[op % len(live)]
        if (len(live) > 1 and topo.replicas < len(live) - 1
                and not _last_full(topo, leaver)):
            topo.remove_node(leaver)
    elif op[0] == "move":
        _, slot, pick = op
        topo.move_slot(slot, live[pick % len(live)])
    elif op[0] == "crash":
        victim = live[op[1] % len(live)]
        if len(live) > 1 and not _last_full(topo, victim):
            topo.crash_node(victim)
    elif topo.down_nodes:
        down = sorted(topo.down_nodes)
        topo.restart_node(down[op[1] % len(down)])


def _run_script(topo, ops):
    def on_owner_change(slot, old, new):
        # observers run mid-change: the ring is already the new one
        # and the changed slot's entry must already reflect it
        assert topo.owner(slot) == new
        assert list(topo.full_nodes()) == walk_full_nodes(topo)
        assert_slot_matches_walk(topo, slot)

    topo.on_owner_change = on_owner_change
    assert_table_matches_walk(topo)  # fills every entry before step 1
    for op in ops:
        _step(topo, op)
        assert_table_matches_walk(topo)


class TestRouteTableNeverStale:
    @settings(max_examples=60, deadline=None)
    @given(nodes=st.integers(min_value=1, max_value=8),
           replicas=st.integers(min_value=0, max_value=1),
           ops=ROUTE_SCRIPT)
    def test_homogeneous_fleets(self, nodes, replicas, ops):
        replicas = min(replicas, nodes - 1)
        topo = ClusterTopology(nodes, replicas=replicas, num_slots=SLOTS)
        _run_script(topo, ops)

    @settings(max_examples=60, deadline=None)
    @given(classes=FLEETS, replicas=st.integers(min_value=0, max_value=1),
           ops=ROUTE_SCRIPT)
    def test_mixed_fleets(self, classes, replicas, ops):
        topo = ClusterTopology(len(classes), replicas=replicas,
                               num_slots=SLOTS,
                               node_classes=tuple(classes))
        _run_script(topo, ops)


class TestInvalidationEvents:
    def test_ring_generation_bumps_on_every_membership_change(self):
        topo = ClusterTopology(4, replicas=1, num_slots=SLOTS)
        gen = topo.ring_generation
        joiner = topo.add_node()
        topo.remove_node(joiner)
        topo.crash_node(1)
        topo.restart_node(1)
        assert topo.ring_generation == gen + 4

    def test_move_slot_drops_only_that_slot(self):
        topo = ClusterTopology(4, replicas=1, num_slots=SLOTS)
        before = [topo.route(slot) for slot in range(SLOTS)]
        gen = topo.ring_generation
        slot = topo.slots_of(0)[0]
        topo.move_slot(slot, 2)
        assert topo.ring_generation == gen
        after = [topo.route(s) for s in range(SLOTS)]
        assert after[slot] is not before[slot]
        assert all(after[s] is before[s] for s in range(SLOTS)
                   if s != slot)
        assert topo.read_set(slot) == (2, 3)

    def test_joiners_are_never_accelerators(self):
        topo = ClusterTopology(3, num_slots=SLOTS,
                               node_classes=(NODE_CLASS_FULL,
                                             NODE_CLASS_ACCEL,
                                             NODE_CLASS_FULL))
        joiner = topo.add_node()
        assert topo.accel_nodes == frozenset({1})
        assert joiner in topo.full_nodes()
