"""Hash-slot sharding: slot ownership, replicas, minimal-remap moves.

The keyspace is partitioned into :data:`NUM_SLOTS` hash slots (16384,
Redis Cluster's constant); a key's slot is its fast-path hash modulo
the slot count, reusing the registered hash functions of
:mod:`repro.hashes` so the cluster shards on exactly the bytes the
STLT fast path hashes.

:class:`ClusterTopology` maps every slot to a primary node and, via
ring successorship, to ``replicas`` follower nodes.  Membership
changes remap the *minimal* slot set:

* :meth:`add_node` steals just enough slots (one at a time, from the
  currently largest owner) to give the joiner an equal share — no slot
  between two surviving nodes ever moves;
* :meth:`remove_node` redistributes exactly the leaver's slots (one at
  a time, to the currently smallest owner) — every other assignment is
  untouched.

Both invariants, plus the ±1 balance bound, are property-tested with
Hypothesis over arbitrary join/leave sequences.  All tie-breaks are
deterministic (lowest node id, lowest slot index), so a topology is a
pure function of its construction sequence.

Failures (DESIGN.md section 13) reuse the same minimal-remap core:

* :meth:`crash_node` takes a node down *ungracefully*.  With replicas,
  each orphaned slot is promoted to a surviving member of its replica
  set — the ring successor when one replica is configured — so
  ownership follows the data and no acknowledged write is stranded;
  without replicas the orphans redistribute exactly like
  :meth:`remove_node` (the ±1 bound holds, the data does not — the
  service layer reports the loss, never silently).
* :meth:`restart_node` rejoins a crashed node (empty, resynced) by
  stealing an equal share like :meth:`add_node`.

Every ownership change — join, leave, migration commit, promotion —
bumps the slot's **epoch** (:attr:`slot_epoch`), the fencing token that
makes a demoted primary's authority stale by version rather than by
decree, and notifies the optional :attr:`on_owner_change` observer (the
service layer hangs the failover oracle's data bookkeeping and the
eager-repair broadcast off it).

Routing answers (replicas, read set, backer / write authority, durable
set) are a pure function of a slot's owner and the ring, so the
topology keeps them in a per-slot **route table** (:meth:`route`) —
the STLT's cached multi-step translation, one level up.  An entry is
built by the ring walk on first query and dropped by exactly the two
events that can change it: the slot's own owner change (the
:meth:`_assign` that bumps its epoch) and any ring change, which bumps
:attr:`ring_generation` and drops every entry before an observer can
query the new membership.
"""

from __future__ import annotations

from typing import (Callable, Dict, FrozenSet, List, NamedTuple, Optional,
                    Sequence, Set, Tuple)

from ..errors import ClusterError, HeteroError
from ..hashes.registry import get_hash
from ..hetero.fleet import (
    NODE_CLASS_ACCEL,
    NODE_CLASS_FULL,
    NODE_CLASSES,
    slot_weight,
)

__all__ = ["NUM_SLOTS", "ClusterTopology", "SlotRoute", "slot_for_key"]

#: Redis Cluster's hash-slot count; a power of two, so the slot of a
#: hash is a mask rather than a modulo
NUM_SLOTS = 16384


def slot_for_key(key: bytes, fast_hash: str = "xxh3",
                 num_slots: int = NUM_SLOTS) -> int:
    """The hash slot owning ``key`` (fast-path hash modulo slots)."""
    return get_hash(fast_hash)(key) % num_slots


class SlotRoute(NamedTuple):
    """One slot's routing answers, valid until its owner or the ring
    changes (see :meth:`ClusterTopology.route`)."""

    #: replica nodes, ring order
    replicas: Tuple[int, ...]
    #: every node a read may legally be served from
    read_set: Tuple[int, ...]
    #: the full node holding the authoritative data, which is also the
    #: write authority (the primary itself on a full primary)
    backer: int


class ClusterTopology:
    """Slot-to-node assignment with replicas and minimal-remap moves.

    One code path serves every fleet.  Nodes without a declared class
    are full, and a fleet without accelerators has an empty
    :attr:`accel_nodes`: the capability-weighted slot layout, the
    accelerator-skipping replica walk and the full-node promotion pool
    then give exactly the homogeneous answers.
    """

    def __init__(self, num_nodes: int, replicas: int = 0,
                 num_slots: int = NUM_SLOTS,
                 node_classes: Optional[Sequence[str]] = None) -> None:
        if num_nodes < 1:
            raise ClusterError("a cluster needs at least one node")
        if not 0 <= replicas < num_nodes:
            raise ClusterError(
                f"replica count {replicas} needs at least "
                f"{replicas + 1} nodes (got {num_nodes})")
        if num_slots < num_nodes:
            raise ClusterError("need at least one slot per node")
        self.num_slots = num_slots
        self.replicas = replicas
        #: node id -> node class; nodes absent from the dict (joiners)
        #: are full
        self.node_class: Dict[int, str] = {}
        if node_classes is not None:
            if len(node_classes) != num_nodes:
                raise HeteroError(
                    f"node-types spec names {len(node_classes)} "
                    f"node(s) but the cluster has {num_nodes}")
            for node, cls in enumerate(node_classes):
                if cls not in NODE_CLASSES:
                    raise HeteroError(
                        f"unknown node class {cls!r} for node {node}")
                self.node_class[node] = cls
            num_full = sum(1 for cls in self.node_class.values()
                           if cls == NODE_CLASS_FULL)
            if num_full == 0:
                raise HeteroError(
                    "a fleet needs at least one full node; "
                    "accelerators are GET-only")
            if replicas >= num_full:
                raise HeteroError(
                    f"{replicas} replica(s) per slot need at least "
                    f"{replicas + 1} full nodes (replicas are durable "
                    f"copies, so only full nodes hold them); the "
                    f"fleet has {num_full}")
        #: the accelerator node ids, fixed at construction (joiners
        #: are always full nodes).  Empty for an all-full fleet, which
        #: makes every accelerator rule below a no-op
        self.accel_nodes: FrozenSet[int] = frozenset(
            node for node, cls in self.node_class.items()
            if cls == NODE_CLASS_ACCEL)
        #: sorted active node ids (the replica-placement ring)
        self.node_ids: List[int] = list(range(num_nodes))
        #: slot index -> owning (primary) node id
        self.slot_owner: List[int] = [0] * num_slots
        # contiguous ranges sized by capability: an accelerator node
        # takes slot_weight() shares per full-node share, like weighted
        # shards in a production cluster, leaving the full backers the
        # slot headroom to absorb fallback traffic.  A full node's
        # weight is 1, so an all-full fleet gets Redis Cluster's
        # balanced default: node i owns [i * S / N, (i + 1) * S / N).
        weights = [slot_weight(self.node_class_of(i))
                   for i in range(num_nodes)]
        total = sum(weights)
        lo, acc = 0, 0
        for i in range(num_nodes):
            acc += weights[i]
            hi = acc * num_slots // total
            for slot in range(lo, hi):
                self.slot_owner[slot] = i
            lo = hi
        self._next_id = num_nodes
        #: per-slot ownership generation: bumped on every owner change
        #: (join steal, leave redistribution, migration commit, crash
        #: promotion) — the fencing token a demoted primary fails by
        self.slot_epoch: List[int] = [0] * num_slots
        #: crashed node ids eligible for :meth:`restart_node`
        self.down_nodes: Set[int] = set()
        #: observer called after every committed owner change as
        #: ``on_owner_change(slot, old_owner, new_owner)``; the ring
        #: already reflects the new membership when it fires
        self.on_owner_change: Optional[Callable[[int, int, int], None]] \
            = None
        #: bumped on every ring (``node_ids``) change
        self.ring_generation = 0
        #: slot -> cached :class:`SlotRoute` (None: walk on next query)
        self._routes: List[Optional[SlotRoute]] = [None] * num_slots
        #: active full nodes of the current ring generation
        self._full: Optional[Tuple[int, ...]] = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    def owner(self, slot: int) -> int:
        """The primary node of ``slot``."""
        return self.slot_owner[slot]

    def epoch(self, slot: int) -> int:
        """The ownership generation of ``slot``."""
        return self.slot_epoch[slot]

    @property
    def max_epoch(self) -> int:
        """The highest slot epoch (how churned the config ever got)."""
        return max(self.slot_epoch)

    def node_class_of(self, node: int) -> str:
        """The class of ``node`` (joiners default to full)."""
        return self.node_class.get(node, NODE_CLASS_FULL)

    def is_accel(self, node: int) -> bool:
        """Whether ``node`` is a lookup-accelerator node."""
        return node in self.accel_nodes

    def full_nodes(self) -> Tuple[int, ...]:
        """The *active* full-class node ids, ascending."""
        full = self._full
        if full is None:
            full = self._full = tuple(n for n in self.node_ids
                                      if n not in self.accel_nodes)
        return full

    def route(self, slot: int) -> SlotRoute:
        """The routing answers of ``slot`` from the route table,
        walking the ring only when the entry was dropped."""
        route = self._routes[slot]
        if route is None:
            route = self._routes[slot] = self._walk(slot)
        return route

    def _walk(self, slot: int) -> SlotRoute:
        """Derive ``slot``'s :class:`SlotRoute` from the owner and ring.

        Replicas are the next ``replicas`` *full* ring successors of
        the primary, in ring order (never the primary itself, never a
        duplicate — after crashes have shrunk the ring below
        ``replicas + 1`` members the surviving successors).  Replicas
        are durable copies, so accelerator nodes are skipped; an
        all-full fleet has none to skip.

        A full primary backs itself; an accelerator primary is a read
        cache whose slot is backed by a full node picked by slot index
        over the active full set — deterministic, and spreading each
        accelerator's fallback traffic (writes and
        capacity misses) evenly across every full node instead of
        hot-spotting one ring successor.  When a full node crashes the
        spread recomputes over the survivors.  The backer is always
        readable: it holds the data an accelerator primary only caches.
        """
        owner = self.slot_owner[slot]
        replicas: Tuple[int, ...] = ()
        if self.replicas:
            ring = self.node_ids
            start = ring.index(owner)
            n = len(ring)
            out: List[int] = []
            for k in range(1, n):
                node = ring[(start + k) % n]
                if node not in self.accel_nodes:
                    out.append(node)
                    if len(out) == self.replicas:
                        break
            replicas = tuple(out)
        read_set = (owner,) + replicas
        backer = owner
        if owner in self.accel_nodes:
            full = self.full_nodes()
            if not full:
                raise HeteroError(
                    f"slot {slot} has no full-class backer: every "
                    f"surviving node is an accelerator")
            backer = full[slot % len(full)]
            if backer not in read_set:
                read_set = read_set + (backer,)
        return SlotRoute(replicas, read_set, backer)

    def write_authority(self, slot: int) -> int:
        """The single node a write of ``slot`` must be served by."""
        return self.route(slot).backer

    def replicas_of(self, slot: int) -> Tuple[int, ...]:
        """The replica nodes of ``slot`` (empty without replicas)."""
        return self.route(slot).replicas

    def read_set(self, slot: int) -> Tuple[int, ...]:
        """Every node a read of ``slot`` may legally be served from:
        the primary, its replicas and (mixed fleets) the backer."""
        return self.route(slot).read_set

    def durable_set(self, slot: int) -> FrozenSet[int]:
        """The nodes holding a *durable* copy of ``slot``'s data: the
        write authority plus the (full-class) replicas.  For a
        homogeneous fleet this equals ``set(read_set(slot))``; for a
        mixed one it excludes accelerator primaries, whose on-chip
        memory is a cache, never a copy of record."""
        route = self.route(slot)
        return frozenset((route.backer,) + route.replicas)

    def slots_of(self, node: int) -> List[int]:
        """All slots whose primary is ``node`` (ascending)."""
        return [s for s, owner in enumerate(self.slot_owner)
                if owner == node]

    def counts(self) -> Dict[int, int]:
        """Primary slot count per active node (zero-filled)."""
        counts = {node: 0 for node in self.node_ids}
        for owner in self.slot_owner:
            counts[owner] += 1
        return counts

    # ------------------------------------------------------------------
    # the single write path for ownership
    # ------------------------------------------------------------------

    def _ring_changed(self) -> None:
        """``node_ids`` changed: every route may have moved."""
        self.ring_generation += 1
        self._full = None
        self._routes = [None] * self.num_slots

    def _assign(self, slot: int, node: int) -> None:
        """Commit one owner change: bump the epoch, fire the observer."""
        old = self.slot_owner[slot]
        self.slot_owner[slot] = node
        self.slot_epoch[slot] += 1
        self._routes[slot] = None
        if self.on_owner_change is not None:
            self.on_owner_change(slot, old, node)

    # ------------------------------------------------------------------
    # membership (minimal remap)
    # ------------------------------------------------------------------

    def add_node(self) -> int:
        """Join a fresh node, stealing an equal share of slots.

        Exactly ``num_slots // new_node_count`` slots move, each the
        highest-indexed slot of whichever surviving node currently owns
        the most (tie: lowest node id); no slot changes hands between
        two surviving nodes.  Returns the new node's id.
        """
        new_id = self._next_id
        self._next_id += 1
        self._join(new_id)
        return new_id

    def _join(self, new_id: int) -> List[int]:
        """Shared join core of :meth:`add_node`/:meth:`restart_node`."""
        donors = list(self.node_ids)
        counts = self.counts()
        owned: Dict[int, List[int]] = {node: [] for node in donors}
        for slot, owner in enumerate(self.slot_owner):
            owned[owner].append(slot)  # ascending by construction
        share = self.num_slots // (self.num_nodes + 1)
        # the joiner enters the ring before slots transfer, so the
        # observer sees replica sets computed over the new membership
        self.node_ids.append(new_id)
        self.node_ids.sort()
        self._ring_changed()
        stolen: List[int] = []
        for _ in range(share):
            donor = max(donors, key=lambda n: (counts[n], -n))
            slot = owned[donor].pop()  # the donor's highest slot
            counts[donor] -= 1
            self._assign(slot, new_id)
            stolen.append(slot)
        return stolen

    def remove_node(self, node: int) -> List[int]:
        """Leave: redistribute exactly the leaver's slots.

        Each orphaned slot (ascending) goes to whichever survivor
        currently owns the fewest (tie: lowest id), so only the
        leaver's slots change owner and the survivors stay balanced.
        Returns the remapped slot indices.
        """
        if node not in self.node_ids:
            raise ClusterError(f"node {node} is not in the cluster")
        if self.num_nodes == 1:
            raise ClusterError("cannot remove the last node")
        if self.replicas >= self.num_nodes - 1:
            raise ClusterError(
                f"cannot drop to {self.num_nodes - 1} node(s) with "
                f"{self.replicas} replica(s) per slot")
        counts = self.counts()
        counts.pop(node, None)
        orphans = [s for s, owner in enumerate(self.slot_owner)
                   if owner == node]
        self.node_ids.remove(node)
        self._ring_changed()
        for slot in orphans:
            heir = min(self.node_ids, key=lambda n: (counts[n], n))
            self._assign(slot, heir)
            counts[heir] += 1
        return orphans

    # ------------------------------------------------------------------
    # failures (promotion + rejoin)
    # ------------------------------------------------------------------

    def crash_node(self, node: int) -> List[int]:
        """Take ``node`` down ungracefully; returns its orphaned slots.

        With replicas, every orphaned slot is **promoted** onto a
        surviving member of its pre-crash replica set — for one replica
        that is exactly the ring successor; with more, the least-loaded
        holder (tie: lowest id) — so ownership follows the data.  If an
        overlapping failure killed every replica of a slot too, the
        slot falls back to the least-loaded survivor (the data is gone;
        the failover oracle accounts for it).  Replica-less clusters
        redistribute like :meth:`remove_node`, preserving the ±1
        balance bound.  The crashed node stays known to the topology
        and may :meth:`restart_node` later.
        """
        if node not in self.node_ids:
            raise ClusterError(f"node {node} is not in the cluster")
        if self.num_nodes == 1:
            raise ClusterError("cannot crash the last node")
        orphans = [s for s, owner in enumerate(self.slot_owner)
                   if owner == node]
        # replica sets are successors of the *dead* primary: compute
        # them before the ring shrinks
        heirs_of: Dict[int, Tuple[int, ...]] = \
            {slot: self.replicas_of(slot) for slot in orphans} \
            if self.replicas else {}
        counts = self.counts()
        counts.pop(node, None)
        self.node_ids.remove(node)
        self._ring_changed()
        self.down_nodes.add(node)
        if not self.full_nodes():
            raise HeteroError(
                f"crashing node {node} leaves no full node: an "
                f"all-accelerator fleet cannot serve writes")
        for slot in orphans:
            candidates = [n for n in heirs_of.get(slot, ())
                          if n in counts]
            # a promotion makes the heir the slot's primary for SETs
            # too, so it must land on a full node — never an
            # accelerator (replica heirs already are full-class; the
            # replica-less fallback pool must match)
            pool = candidates or self.full_nodes()
            heir = min(pool, key=lambda n: (counts[n], n))
            self._assign(slot, heir)
            counts[heir] += 1
        return orphans

    def restart_node(self, node: int) -> List[int]:
        """Rejoin a crashed node (empty, resyncing on the way in).

        The node re-enters the ring under its old id and steals an
        equal share exactly like :meth:`add_node` — each stolen slot's
        data syncs from its (live) previous owner, so a restart is a
        graceful transfer, not a promotion.  Returns the stolen slots.
        """
        if node in self.node_ids:
            raise ClusterError(f"node {node} is already in the cluster")
        if node not in self.down_nodes:
            raise ClusterError(
                f"node {node} never crashed; nothing to restart")
        self.down_nodes.discard(node)
        return self._join(node)

    # ------------------------------------------------------------------
    # migration primitive
    # ------------------------------------------------------------------

    def move_slot(self, slot: int, dst: int) -> int:
        """Reassign one slot (the commit step of a live migration).

        Returns the previous owner.  The caller (the migration
        scheduler) is responsible for the ASK window that precedes the
        commit; the topology itself only ever reflects *committed*
        ownership — exactly like the kernel page table vs the STLT.
        """
        if not 0 <= slot < self.num_slots:
            raise ClusterError(f"slot {slot} out of range")
        if dst not in self.node_ids:
            raise ClusterError(f"node {dst} is not in the cluster")
        prev = self.slot_owner[slot]
        self._assign(slot, dst)
        return prev

    # ------------------------------------------------------------------

    def assignment(self) -> Sequence[int]:
        """A read-only copy of the slot-owner table (for diffing)."""
        return tuple(self.slot_owner)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ClusterTopology(nodes={self.node_ids}, "
                f"replicas={self.replicas}, slots={self.num_slots})")
