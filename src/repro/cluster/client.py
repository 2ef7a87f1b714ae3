"""Cluster clients: route caches and the capability pre-route.

The route cache is the cluster-scale STLT (DESIGN.md section 10).  A
row maps a hash slot to the node last known to own it — the analogue
of the STLT's cached (VA, PTE) shortcut.  Lookups are classified the
same three ways the fast path classifies translations:

* **hit**   — the cached node still owns the slot (shortcut taken);
* **stale** — the cached node *used* to own it; the contacted node
  answers MOVED, the row is invalidated and re-learned from the
  redirect — semantic validation killing a stale row, one redirect's
  worth of cycles, never a wrong answer;
* **miss**  — no row; the client contacts its seeded bootstrap node
  and learns the owner from the (likely) MOVED reply, exactly like a
  cold STLT set filling on first touch.

With the cache disabled every request goes through a bootstrap node —
the paper's baseline, one level up: correctness by always asking the
authority, throughput lost to the extra hop.

Writes route like reads with one extra rule: only the slot's *primary*
may acknowledge a write, so a cached row pointing at a replica counts
as stale for a write (the replica answers MOVED to the primary) even
though the same row is a perfectly good read hit.

Failover (DESIGN.md section 13) adds the timeout path: when a request
to a cached node times out — the node crashed or sits behind a
partition, so there is no MOVED reply to heal the row — the client
drops the row itself (:meth:`on_timeout`) and re-resolves through a
bootstrap node on the retry, which yields a MOVED to whatever node the
promotion elected.  Stale routes still die by validation; a dead
validator is replaced by a timeout plus one bootstrap hop.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from ..errors import ClusterError
from .topology import ClusterTopology

__all__ = ["ClusterClient", "RouteCache"]


class RouteCache:
    """Per-client slot -> node cache with MOVED-style invalidation."""

    def __init__(self) -> None:
        self._routes: Dict[int, int] = {}
        self.hits = 0
        self.stale_hits = 0
        self.misses = 0

    def lookup(self, slot: int) -> Optional[int]:
        """The cached owner of ``slot``, or None (no counters here —
        the client classifies the outcome once the truth is known)."""
        return self._routes.get(slot)

    def learn(self, slot: int, node: int) -> None:
        """Install/refresh a route (from a MOVED reply or a served
        response) — the cluster analogue of ``insertSTLT``."""
        self._routes[slot] = node

    def invalidate(self, slot: int) -> None:
        """Drop a route (MOVED received) — the analogue of the IPB
        invalidating a buffered vpn's rows."""
        self._routes.pop(slot, None)

    def __len__(self) -> int:
        return len(self._routes)


class ClusterClient:
    """One request source: a route cache and a bootstrap stream."""

    def __init__(self, client_id: int, num_nodes: int, *,
                 route_cache: bool = True, seed: int = 0) -> None:
        if num_nodes < 1:
            raise ClusterError("clients need at least one node")
        self.name = f"client{client_id}"
        self.cache: Optional[RouteCache] = RouteCache() if route_cache \
            else None
        #: deterministic per-client stream of bootstrap-node choices
        #: (independent of every engine stream)
        self.rng = random.Random(seed)
        self._num_nodes = num_nodes
        #: per-request attempts that timed out against this client
        self.timeouts = 0
        #: requests locally rerouted off an accelerator node by the
        #: capability pre-route (always 0 on an all-full fleet)
        self.cap_reroutes = 0

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def bootstrap_node(self) -> int:
        """The node a cache-less (or cache-cold) request contacts."""
        return self.rng.randrange(self._num_nodes)

    def target_for(self, slot: int, owner: int, topology: ClusterTopology,
                   is_read: bool) -> Tuple[int, str]:
        """Pick the node to contact for ``slot``, whose primary is
        ``owner`` (the caller has just read it from ``topology``).

        Returns ``(node_index, classification)`` where the
        classification is ``"hit"`` / ``"stale"`` / ``"miss"`` —
        judged against the topology's *current* truth, so the caller
        can charge a redirect without re-deriving the verdict.  The
        counters update here; the cache rows update when the caller
        reports the redirect outcome (:meth:`on_moved`) or the serve
        (:meth:`on_served`).
        """
        if self.cache is None:
            return self.bootstrap_node(), "miss"
        cached = self.cache.lookup(slot)
        if cached is None:
            self.cache.misses += 1
            return self.bootstrap_node(), "miss"
        # a replica row is a hit for a read but stale for a write: only
        # the primary acknowledges writes, so the replica answers MOVED
        good = cached == owner or (is_read and
                                   cached in topology.replicas_of(slot))
        if good:
            self.cache.hits += 1
            return cached, "hit"
        self.cache.stale_hits += 1
        return cached, "stale"

    def capability_route(self, slot: int, target: int,
                         topology: ClusterTopology, is_write: bool) -> int:
        """Capability-aware pre-route; a full-node target passes through.

        Clients know every node's class from the cluster bus, so
        when the judged target is an accelerator and the operation
        is a write, which it cannot serve, the request goes straight
        to the slot's full-class authority instead.  This is
        a *local* decision, not an extra hop: the ineligible op never
        touches the accelerator.  Capacity misses cannot be judged
        here (residency is the accelerator's secret) and fall back at
        serve time instead.
        """
        if not topology.is_accel(target):
            return target
        if is_write:
            self.cap_reroutes += 1
            return topology.write_authority(slot)
        return target

    def on_moved(self, slot: int, owner: int) -> None:
        """A MOVED reply: invalidate the stale row, learn the truth."""
        if self.cache is not None:
            self.cache.invalidate(slot)
            self.cache.learn(slot, owner)

    def on_timeout(self, slot: int) -> None:
        """A request against ``slot`` timed out: the contacted node is
        dead or unreachable, so no MOVED reply will ever heal the row.
        Drop it — the retry bootstraps and relearns from whichever node
        answers (the timeout analogue of stale-dies-by-validation)."""
        self.timeouts += 1
        if self.cache is not None:
            self.cache.invalidate(slot)

    def on_served(self, slot: int, node: int) -> None:
        """A successful serve confirms (or installs) the route.

        ASK redirects deliberately do *not* come through here: per
        redirect semantics an ASK is a one-shot exception that must
        not be cached (the slot has not committed to the new owner
        yet), mirroring how a loadVA miss does not install rows.
        """
        if self.cache is not None:
            self.cache.learn(slot, node)
