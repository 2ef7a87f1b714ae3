"""Live slot migration, scheduled through the chaos machinery.

Slot rebalancing in a live cluster is the cluster-scale version of the
OS churn :mod:`repro.chaos` injects at node scale: ownership moves
under running traffic, and every cached route pointing at the old
owner goes stale.  The scheduler therefore *reuses*
:class:`repro.chaos.schedule.ChaosSchedule` for event positions —
``migrate_rate`` is the per-request firing probability, and the same
position/payload stream split applies: *when* migrations fire comes
from the shared schedule stream, *what* migrates (which slot, to which
node) from an independent ``cluster_migration`` stream, so changing
the payload policy never shifts later event positions.

One migration follows Redis Cluster's two-phase protocol:

1. **ASK window** — for ``burst x ASK_WINDOW_SCALE`` requests the slot
   is ``MIGRATING`` on the old owner / ``IMPORTING`` on the new one.
   A request routed to the old owner is ASK-redirected: one extra hop
   to the importer, which serves it authoritatively.  ASK replies are
   *not* cached (the move has not committed), exactly like a loadVA
   miss leaving the STLT untouched.
2. **commit** — the window closes, :meth:`ClusterTopology.move_slot`
   flips ownership.  Every route cached during the old regime is now
   stale and dies by MOVED on its next touch — the cluster-scale
   semantic validation the oracle checks.  If a crash's promotion has
   removed the importer from the ring by then, the window **aborts**
   instead: the slot stays with its owner (which may itself have been
   promoted), and nothing is committed.  The check runs only at the
   window's end, so an importer that is demoted and restarts inside
   the window still commits.

At most one migration is in flight per slot; an event drawn for a
slot already moving counts as skipped (mirroring the injector's
fired-but-inapplicable accounting).
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, Optional, Tuple

from ..chaos.schedule import ChaosSchedule
from ..params import derive_seed
from .topology import ClusterTopology

__all__ = ["MigrationScheduler", "ASK_WINDOW_SCALE"]

#: requests one burst unit keeps the ASK window open for; with the
#: schedule's bursts of 1..8, windows span 32..256 requests — long
#: enough for hot slots to take several ASK hops, short enough that a
#: measured run sees multiple full migrations commit
ASK_WINDOW_SCALE = 32


class MigrationScheduler:
    """Drives scheduled live slot migrations over a topology.

    Destinations are drawn from the topology's active full nodes.  A
    window whose importer has left the ring by its end aborts (see the
    module docstring); after :meth:`drain`, ``started - committed``
    counts the aborted windows.
    """

    def __init__(self, topology: ClusterTopology, migrate_rate: float,
                 seed: int,
                 slot_source: Optional[Callable[[random.Random], int]]
                 = None) -> None:
        self.topology = topology
        #: the chaos machinery provides event positions: one schedule
        #: draw per request, exactly like the injector's per-slot draws
        self.schedule = ChaosSchedule(migrate_rate, seed)
        #: payload stream (slot and destination choices), independent
        #: of the position stream above
        self.rng = random.Random(derive_seed(seed, "cluster_migration"))
        #: which slot a migration event targets.  The default draws
        #: uniformly over all slots; the cluster loop passes a source
        #: weighted to the *populated* keyspace (the analogue of the
        #: injector's random-record picks) so scaled-down runs migrate
        #: slots that actually carry traffic.
        self._slot_source = slot_source or (
            lambda rng: rng.randrange(self.topology.num_slots))
        #: slot -> (destination node, request index the window closes)
        self._in_flight: Dict[int, Tuple[int, int]] = {}
        #: the due test: :meth:`before_request` changes nothing for a
        #: request index below ``next_due``.  An armed scheduler draws
        #: from its schedule on every request, so every index is due;
        #: an unarmed one never is
        self.next_due: float = 0 if self.active else math.inf
        # -- telemetry ------------------------------------------------
        self.started = 0
        self.committed = 0
        self.skipped = 0
        self.ask_redirects = 0

    @property
    def active(self) -> bool:
        return self.schedule.churn_rate > 0.0

    # ------------------------------------------------------------------

    def before_request(self, index: int) -> None:
        """Advance migration state for request ``index``.

        Commits every window that has expired, then consults the chaos
        schedule for a new event.  Call once per request, in request
        order — the same contract the injector has with the multi-core
        interleave.
        """
        if not self.active:
            return
        for slot in [s for s, (_, end) in self._in_flight.items()
                     if end <= index]:
            dst, _ = self._in_flight.pop(slot)
            self._close(slot, dst)

        event = self.schedule.draw()
        if event is None:
            return
        slot = self._slot_source(self.rng)
        if slot in self._in_flight or self.topology.num_nodes < 2:
            self.skipped += 1
            return
        owner = self.topology.owner(slot)
        # destinations are the active full nodes (every node of an
        # all-full fleet): an accelerator's key memory is managed by
        # dispatch (install on miss, invalidate on write), never by
        # bulk slot transfer, and an ASK window must forward to a node
        # that can serve *any* op on the slot
        others = [n for n in self.topology.full_nodes() if n != owner]
        if not others:
            self.skipped += 1
            return
        dst = others[self.rng.randrange(len(others))]
        self._in_flight[slot] = (dst, index + event.burst * ASK_WINDOW_SCALE)
        self.started += 1

    def ask_target(self, slot: int, node: int) -> Optional[int]:
        """If ``slot`` is migrating and ``node`` is its (still
        authoritative) old owner, the importing node the request must
        be ASK-forwarded to; None otherwise."""
        entry = self._in_flight.get(slot)
        if entry is None or node != self.topology.owner(slot):
            return None
        self.ask_redirects += 1
        return entry[0]

    def importing_node(self, slot: int) -> Optional[int]:
        """The node importing ``slot`` mid-window (oracle helper)."""
        entry = self._in_flight.get(slot)
        return entry[0] if entry is not None else None

    def drain(self, index: int) -> None:
        """Close every still-open window (end of run).  Afterwards
        ``started - committed`` is the number of aborted windows."""
        for slot, (dst, _) in sorted(self._in_flight.items()):
            self._close(slot, dst)
        self._in_flight.clear()

    def _close(self, slot: int, dst: int) -> None:
        """End ``slot``'s window: commit the move to ``dst``, or abort
        it when a promotion has removed ``dst`` from the ring."""
        if dst in self.topology.node_ids:
            self.topology.move_slot(slot, dst)
            self.committed += 1

    def report(self) -> dict:
        return {
            "started": self.started,
            "committed": self.committed,
            "skipped": self.skipped,
            "ask_redirects": self.ask_redirects,
            "in_flight": len(self._in_flight),
        }
