"""Property tests for minimal-remap sharding (ISSUE 5 satellite).

Two invariants over *arbitrary* membership sequences:

* **balance** — after any sequence of joins/leaves, primary slot
  counts across live nodes differ by at most the rounding slack the
  one-slot-at-a-time greedy can leave behind;
* **minimal remap** — a join moves exactly ``num_slots // new_count``
  slots, all to the joiner; a leave moves exactly the leaver's slots
  and touches no other assignment.

A small slot count keeps Hypothesis fast; the invariants are
independent of the slot-table size.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import ClusterTopology

#: small table for speed — the greedy never consults the constant
SLOTS = 128


def _apply(topo, ops):
    """Replay a membership script; skips illegal leaves."""
    for op in ops:
        if op is None:
            topo.add_node()
        elif topo.num_nodes > 1:
            victims = topo.node_ids
            topo.remove_node(victims[op % len(victims)])


#: None = join; an int = leave (index into the live node list)
MEMBERSHIP = st.lists(
    st.one_of(st.none(), st.integers(min_value=0, max_value=31)),
    max_size=12)


class TestBalanceInvariant:
    @settings(max_examples=60, deadline=None)
    @given(nodes=st.integers(min_value=1, max_value=8), ops=MEMBERSHIP)
    def test_counts_stay_balanced(self, nodes, ops):
        topo = ClusterTopology(nodes, num_slots=SLOTS)
        _apply(topo, ops)
        counts = topo.counts()
        assert sum(counts.values()) == SLOTS  # no slot lost or doubled
        # the one-at-a-time greedy keeps live nodes within one slot of
        # each other — the +/-1 balance bound
        assert max(counts.values()) - min(counts.values()) <= 1

    @settings(max_examples=60, deadline=None)
    @given(nodes=st.integers(min_value=1, max_value=8), ops=MEMBERSHIP)
    def test_every_slot_has_a_live_owner(self, nodes, ops):
        topo = ClusterTopology(nodes, num_slots=SLOTS)
        _apply(topo, ops)
        live = set(topo.node_ids)
        assert all(owner in live for owner in topo.assignment())


class TestMinimalRemapInvariant:
    @settings(max_examples=60, deadline=None)
    @given(nodes=st.integers(min_value=1, max_value=8), ops=MEMBERSHIP)
    def test_join_moves_exactly_one_share_all_to_the_joiner(
            self, nodes, ops):
        topo = ClusterTopology(nodes, num_slots=SLOTS)
        _apply(topo, ops)
        before = topo.assignment()
        joiner = topo.add_node()
        after = topo.assignment()
        moved = [s for s, (a, b) in enumerate(zip(before, after))
                 if a != b]
        assert len(moved) == SLOTS // topo.num_nodes
        assert all(after[s] == joiner for s in moved)

    @settings(max_examples=60, deadline=None)
    @given(nodes=st.integers(min_value=2, max_value=8), ops=MEMBERSHIP,
           pick=st.integers(min_value=0, max_value=31))
    def test_leave_moves_exactly_the_leavers_slots(self, nodes, ops,
                                                   pick):
        topo = ClusterTopology(nodes, num_slots=SLOTS)
        _apply(topo, ops)
        if topo.num_nodes < 2:
            topo.add_node()
        leaver = topo.node_ids[pick % topo.num_nodes]
        leaver_slots = set(topo.slots_of(leaver))
        before = topo.assignment()
        orphans = topo.remove_node(leaver)
        after = topo.assignment()
        assert set(orphans) == leaver_slots
        for slot in range(SLOTS):
            if slot in leaver_slots:
                assert after[slot] != leaver
            else:
                assert after[slot] == before[slot]


class TestDeterminism:
    @settings(max_examples=60, deadline=None)
    @given(nodes=st.integers(min_value=1, max_value=8), ops=MEMBERSHIP)
    def test_topology_is_a_pure_function_of_its_script(self, nodes, ops):
        a = ClusterTopology(nodes, num_slots=SLOTS)
        b = ClusterTopology(nodes, num_slots=SLOTS)
        _apply(a, ops)
        _apply(b, ops)
        assert a.assignment() == b.assignment()
        assert a.node_ids == b.node_ids


# ----------------------------------------------------------------------
# failures: crash / restart interleaved with membership (PR 9 satellite)
# ----------------------------------------------------------------------

def _apply_faults(topo, ops):
    """Replay a script mixing joins, leaves, crashes, and restarts;
    skips operations that are illegal in the current state (exactly
    what a driver would refuse to schedule)."""
    for op in ops:
        if op is None:
            topo.add_node()
        elif isinstance(op, int):
            if (topo.num_nodes > 1
                    and topo.replicas < topo.num_nodes - 1):
                topo.remove_node(topo.node_ids[op % topo.num_nodes])
        else:
            kind, pick = op
            if kind == "crash":
                if topo.num_nodes > 1:
                    topo.crash_node(topo.node_ids[pick % topo.num_nodes])
            elif topo.down_nodes:
                down = sorted(topo.down_nodes)
                topo.restart_node(down[pick % len(down)])


#: None = join; int = leave; ("crash"|"restart", pick) = failure event
FAULT_OP = st.one_of(
    st.none(),
    st.integers(min_value=0, max_value=31),
    st.tuples(st.sampled_from(["crash", "restart"]),
              st.integers(min_value=0, max_value=31)),
)
FAULT_SCRIPT = st.lists(FAULT_OP, max_size=14)


class TestFailureInvariants:
    @settings(max_examples=60, deadline=None)
    @given(nodes=st.integers(min_value=1, max_value=8), ops=FAULT_SCRIPT)
    def test_crash_restart_preserve_balance_without_replicas(
            self, nodes, ops):
        """Replica-less crashes redistribute like leaves: the +/-1
        balance bound survives arbitrary interleavings."""
        topo = ClusterTopology(nodes, num_slots=SLOTS)
        _apply_faults(topo, ops)
        counts = topo.counts()
        assert sum(counts.values()) == SLOTS
        assert max(counts.values()) - min(counts.values()) <= 1

    @settings(max_examples=60, deadline=None)
    @given(nodes=st.integers(min_value=2, max_value=8), ops=FAULT_SCRIPT,
           replicas=st.integers(min_value=0, max_value=1))
    def test_no_slot_is_ever_owned_by_a_dead_node(self, nodes, ops,
                                                  replicas):
        """While at least one node lives, every slot has a live
        authoritative owner — never a crashed one, never zero."""
        topo = ClusterTopology(nodes, replicas=replicas, num_slots=SLOTS)
        _apply_faults(topo, ops)
        assert topo.num_nodes >= 1
        live = set(topo.node_ids)
        assert live.isdisjoint(topo.down_nodes)
        assert all(owner in live for owner in topo.assignment())

    @settings(max_examples=60, deadline=None)
    @given(nodes=st.integers(min_value=3, max_value=8), ops=MEMBERSHIP,
           pick=st.integers(min_value=0, max_value=31))
    def test_promotion_lands_on_the_pre_crash_replica(self, nodes, ops,
                                                      pick):
        """With one replica configured, every slot orphaned by a crash
        is promoted onto exactly its pre-crash ring successor —
        ownership follows the data."""
        topo = ClusterTopology(nodes, replicas=1, num_slots=SLOTS)
        _apply_faults(topo, ops)  # joins/leaves only; guard keeps >= 2
        victim = topo.node_ids[pick % topo.num_nodes]
        successor_of = {slot: topo.replicas_of(slot)[0]
                        for slot in topo.slots_of(victim)}
        epochs_before = {slot: topo.epoch(slot) for slot in successor_of}
        orphans = topo.crash_node(victim)
        assert set(orphans) == set(successor_of)
        for slot, successor in successor_of.items():
            assert topo.owner(slot) == successor
            assert topo.epoch(slot) == epochs_before[slot] + 1

    @settings(max_examples=60, deadline=None)
    @given(nodes=st.integers(min_value=1, max_value=8), ops=FAULT_SCRIPT)
    def test_fault_script_is_deterministic(self, nodes, ops):
        a = ClusterTopology(nodes, num_slots=SLOTS)
        b = ClusterTopology(nodes, num_slots=SLOTS)
        _apply_faults(a, ops)
        _apply_faults(b, ops)
        assert a.assignment() == b.assignment()
        assert a.node_ids == b.node_ids
        assert a.down_nodes == b.down_nodes
        assert a.slot_epoch == b.slot_epoch
