"""Node-fault injection: crashes, partitions, degradation, promotion.

The cluster-scale half of the repro.chaos story (DESIGN.md section
13).  A run's ``node_fault_plan`` is a tuple of tiny spec strings in
the same eagerly-validated grammar family as the per-core fault plan
(:func:`repro.chaos.schedule.parse_fault`):

* ``"crash:node=1,at=0.4"``            — node 1 dies at 40% of the run
  (``node_crash``: process gone, unreplicated data gone with it);
* ``"restart:node=1,at=0.8"``          — a crashed node rejoins, empty,
  stealing back an equal slot share (``node_restart``);
* ``"partition:node=2,start=0.3,stop=0.6"`` — node 2 is unreachable
  for the window (``link_partition`` / ``link_heal``: the process and
  its data survive, every message touching it drops);
* ``"degrade:node=0,factor=4,start=0.2,stop=0.5"`` — messages touching
  node 0 pay 4x propagation and 1/4 bandwidth for the window
  (``link_degrade``; ``bw=`` overrides the bandwidth divisor);
* ``"storm:rate=0.0005"``              — *seeded* fault churn: per
  request, with probability ``rate``, a random feasible event fires
  (crash / restart / partition / heal / degrade / restore on a random
  node).  Positions come from a :class:`~repro.chaos.schedule.
  ChaosSchedule` on its own ``node_fault_schedule`` stream and
  payloads from an independent ``node_fault_payload`` stream — the
  same position/payload split the migration scheduler uses, so fault
  positions never shift when payload policy changes.

All positions are fractions of the run's request count, mirroring the
per-core grammar's ``start``/``stop`` window semantics.

**Failure detection and promotion.**  A crashed or partitioned primary
is not replaced instantly: the scheduler waits ``detect_cycles`` of
simulated time (the failure-detector timeout) and then commits the
promotion — :meth:`ClusterTopology.crash_node` removes the node from
the ring, elects each orphaned slot's surviving replica (the ring
successor when one replica is configured), and bumps the slot epochs.
Requests that touch the dead primary inside the detection window time
out and retry; a node that heals *within* the window was never
demoted, exactly like a real failure detector's grace period.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..chaos.schedule import ChaosSchedule
from ..errors import FaultInjectionError
from ..params import derive_seed
from .network import ClusterNetwork
from .topology import ClusterTopology

__all__ = ["NODE_FAULT_KINDS", "NodeFaultSpec", "FailoverScheduler",
           "parse_node_fault", "DEFAULT_DETECT_CYCLES",
           "DEFAULT_DEGRADE_FACTOR"]

NODE_FAULT_KINDS = ("crash", "restart", "partition", "degrade", "storm")

#: default failure-detector timeout, cycles of simulated time between
#: a primary dying and its replica being promoted.  Roughly a dozen
#: healthy request round-trips at the default net_rtt — long enough
#: that a blipped node is not demoted by one lost message, short
#: enough that a scaled-down run spends a visible-but-bounded window
#: timing out against the corpse
DEFAULT_DETECT_CYCLES = 4000.0

#: latency multiplier / bandwidth divisor a degrade event applies when
#: the spec does not say otherwise
DEFAULT_DEGRADE_FACTOR = 4.0

#: storm event kinds and weights (payload stream): recovery actions
#: weigh as much as damage so long storms churn instead of just
#: draining the fleet
_STORM_WEIGHTS: Tuple[Tuple[str, float], ...] = (
    ("crash", 0.22),
    ("restart", 0.22),
    ("partition", 0.16),
    ("heal", 0.16),
    ("degrade", 0.12),
    ("restore", 0.12),
)


@dataclass(frozen=True)
class NodeFaultSpec:
    """One parsed node-fault-plan entry."""

    kind: str                  # see NODE_FAULT_KINDS
    node: int = -1             # target node (-1: storm, no fixed target)
    at: float = 0.0            # crash/restart: firing position
    start: float = 0.0         # partition/degrade/storm: active window
    stop: float = 1.0
    factor: float = DEFAULT_DEGRADE_FACTOR   # degrade: latency mult
    bandwidth_div: float = DEFAULT_DEGRADE_FACTOR  # degrade: bw divisor
    rate: float = 0.0          # storm: per-request firing probability

    def to_spec(self) -> str:
        """The canonical spec string parsing back to this entry."""
        if self.kind in ("crash", "restart"):
            return f"{self.kind}:node={self.node},at={self.at:g}"
        if self.kind == "storm":
            parts = [f"rate={self.rate:g}"]
        else:
            parts = [f"node={self.node}"]
            if self.kind == "degrade":
                parts.append(f"factor={self.factor:g}")
                if self.bandwidth_div != self.factor:
                    parts.append(f"bw={self.bandwidth_div:g}")
        if (self.start, self.stop) != (0.0, 1.0):
            parts.append(f"start={self.start:g}")
            parts.append(f"stop={self.stop:g}")
        return f"{self.kind}:{','.join(parts)}"


def parse_node_fault(spec: str) -> NodeFaultSpec:
    """Parse one node-fault-plan entry; raises ``FaultInjectionError``.

    The same eager contract as the per-core grammar: a typo fails at
    config time, never silently injects nothing.
    """
    if not isinstance(spec, str) or ":" not in spec:
        raise FaultInjectionError(
            f"node fault spec {spec!r} must look like "
            f"'crash:node=N,at=F', 'partition:node=N,start=F,stop=F' "
            f"or 'storm:rate=R'")
    kind, _, body = spec.partition(":")
    if kind not in NODE_FAULT_KINDS:
        raise FaultInjectionError(
            f"unknown node fault kind {kind!r}; "
            f"known: {list(NODE_FAULT_KINDS)!r}")
    params: Dict[str, str] = {}
    for item in body.split(","):
        if not item:
            continue
        if "=" not in item:
            raise FaultInjectionError(
                f"node fault spec {spec!r}: {item!r} is not key=value")
        key, _, value = item.partition("=")
        params[key.strip()] = value.strip()

    allowed = {
        "crash": {"node", "at"},
        "restart": {"node", "at"},
        "partition": {"node", "start", "stop"},
        "degrade": {"node", "factor", "bw", "start", "stop"},
        "storm": {"rate", "start", "stop"},
    }[kind]
    unknown = set(params) - allowed
    if unknown:
        raise FaultInjectionError(
            f"node fault spec {spec!r}: unknown parameter(s) "
            f"{sorted(unknown)!r}")
    if kind != "storm" and "node" not in params:
        raise FaultInjectionError(
            f"node fault spec {spec!r} needs node=N")
    if kind == "storm" and "rate" not in params:
        raise FaultInjectionError(
            f"node fault spec {spec!r} needs rate=R")

    try:
        node = int(params.get("node", -1))
        at = float(params.get("at", 0.0))
        start = float(params.get("start", 0.0))
        stop = float(params.get("stop", 1.0))
        factor = float(params.get("factor", DEFAULT_DEGRADE_FACTOR))
        bw = float(params.get("bw", factor))
        rate = float(params.get("rate", 0.0))
    except ValueError as exc:
        raise FaultInjectionError(
            f"node fault spec {spec!r}: {exc}") from exc

    if kind != "storm" and node < 0:
        raise FaultInjectionError(
            f"node fault spec {spec!r}: node must be >= 0")
    if kind in ("crash", "restart") and not 0.0 <= at <= 1.0:
        raise FaultInjectionError(
            f"node fault spec {spec!r}: need 0 <= at <= 1")
    if not 0.0 <= start < stop <= 1.0:
        raise FaultInjectionError(
            f"node fault spec {spec!r}: need 0 <= start < stop <= 1")
    if kind == "degrade" and (factor < 1.0 or bw < 1.0):
        raise FaultInjectionError(
            f"node fault spec {spec!r}: degrade factors must be >= 1")
    if kind == "storm" and not 0.0 < rate <= 1.0:
        raise FaultInjectionError(
            f"node fault spec {spec!r}: need 0 < rate <= 1")
    return NodeFaultSpec(kind=kind, node=node, at=at, start=start,
                         stop=stop, factor=factor, bandwidth_div=bw,
                         rate=rate)


class FailoverScheduler:
    """Drives node faults, failure detection and replica promotion.

    Consulted once per request (:meth:`before_request`), in request
    order, with the request's arrival time — the same contract the
    migration scheduler and the node-level injector have with their
    loops.  Everything is a pure function of (plan, seed, request
    stream): scripted events fire at fixed request indices, storm
    events come off dedicated namespaced streams, and promotions commit
    the first request whose arrival passes the detection deadline.
    """

    def __init__(self, topology: ClusterTopology, network: ClusterNetwork,
                 plan: Tuple[NodeFaultSpec, ...], seed: int,
                 total_requests: int,
                 detect_cycles: float = DEFAULT_DETECT_CYCLES) -> None:
        self.topology = topology
        self.network = network
        self.detect_cycles = float(detect_cycles)
        self._initial_nodes = topology.num_nodes
        total = max(total_requests, 1)
        #: scripted actions: (request index, sequence tiebreak, action,
        #: spec) — sorted so same-index events apply in plan order
        self._script: List[Tuple[int, int, str, NodeFaultSpec]] = []
        storm: Optional[NodeFaultSpec] = None
        for seq, fault in enumerate(plan):
            if fault.kind == "storm":
                storm = fault  # at most one (validated by RunConfig)
                continue
            if fault.kind in ("crash", "restart"):
                index = min(int(fault.at * total), total - 1)
                self._script.append((index, seq, fault.kind, fault))
            else:
                open_at = min(int(fault.start * total), total - 1)
                close_at = min(int(fault.stop * total), total)
                self._script.append(
                    (open_at, seq, f"{fault.kind}_start", fault))
                self._script.append(
                    (close_at, seq, f"{fault.kind}_stop", fault))
        self._script.sort()
        self._cursor = 0
        self._storm = storm
        self._storm_window = ((min(int(storm.start * total), total - 1),
                               min(int(storm.stop * total), total))
                              if storm else (0, 0))
        #: storm positions ride the chaos machinery on a namespaced
        #: stream; payloads (kind, target) on another — the same split
        #: as ChaosSchedule itself and MigrationScheduler
        self.schedule = ChaosSchedule(storm.rate if storm else 0.0, seed,
                                      namespace="node_fault_schedule")
        self.payload_rng = random.Random(
            derive_seed(seed, "node_fault_payload"))
        self._storm_kinds = [k for k, _ in _STORM_WEIGHTS]
        self._storm_weights = [w for _, w in _STORM_WEIGHTS]
        # -- fleet state ----------------------------------------------
        #: crashed processes (data destroyed)
        self.crashed: Set[int] = set()
        #: partitioned-but-alive nodes (data intact, unreachable)
        self.isolated: Set[int] = set()
        #: nodes removed from the ring by a committed promotion
        self.demoted: Set[int] = set()
        #: node -> simulated time its promotion commits
        self._pending: Dict[int, float] = {}
        #: the due test: :meth:`before_request` changes nothing for a
        #: request index below ``next_due``, so the loop skips those
        #: calls.  Scripted events and storm windows are indexed; a
        #: pending promotion's deadline is a time, so while one is
        #: pending every request is due
        self.next_due: float = self._due_after(-1)
        # -- telemetry ------------------------------------------------
        self.events: Dict[str, int] = {
            "node_crash": 0, "node_restart": 0, "link_partition": 0,
            "link_heal": 0, "link_degrade": 0, "link_restore": 0,
        }
        self.skipped = 0
        self.storm_draws = 0
        self.promotions = 0
        self.slots_promoted = 0
        self.cancelled_promotions = 0
        #: callback fired after each committed promotion with the node
        #: and its remapped slots (the service layer counts data loss)
        self.on_promotion: Optional[
            Callable[[int, List[int]], None]] = None
        #: callback fired the instant a node crashes — its process and
        #: every unreplicated copy it held are gone (oracle bookkeeping)
        self.on_crash: Optional[Callable[[int], None]] = None
        #: callback fired after any change to the replica-placement
        #: ring (promotion, restart, heal-rejoin): replica sets of
        #: slots whose owner did not move may still have changed, so
        #: the service layer re-syncs its replication bookkeeping
        self.on_membership_change: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    # event application
    # ------------------------------------------------------------------

    def _last_live_full(self, node: int) -> bool:
        """Whether ``node`` is the last live full node of a mixed fleet
        (crashed and isolated nodes count as gone).  Losing it would
        demote every full node and leave an all-accelerator ring that
        cannot serve writes, so the fault is infeasible: the mixed-fleet
        twin of the ``len(ring) < 2`` guard."""
        if not self.topology.accel_nodes:
            return False
        gone = self.crashed | self.isolated
        return all(n == node or n in gone
                   for n in self.topology.full_nodes())

    def _apply_crash(self, node: int, now: float) -> bool:
        ring = self.topology.node_ids
        if node in self.crashed or node not in ring or len(ring) < 2 \
                or self._last_live_full(node):
            return False
        self.crashed.add(node)
        self.network.partition(f"node{node}")
        self._pending[node] = now + self.detect_cycles
        self.events["node_crash"] += 1
        if self.on_crash is not None:
            self.on_crash(node)
        return True

    def _apply_restart(self, node: int, now: float) -> bool:
        if node not in self.crashed:
            return False
        self.crashed.discard(node)
        if node not in self.isolated:
            self.network.heal(f"node{node}")
        if node in self.demoted:
            # rejoin the ring, stealing an equal share back; each
            # stolen slot syncs from its live previous owner
            self.topology.restart_node(node)
            self.demoted.discard(node)
            if self.on_membership_change is not None:
                self.on_membership_change()
        elif self._pending.pop(node, None) is not None:
            # back before the failure detector fired: never demoted
            self.cancelled_promotions += 1
        self.events["node_restart"] += 1
        return True

    def _apply_partition(self, node: int, now: float) -> bool:
        if node in self.isolated or node in self.crashed \
                or node not in self.topology.node_ids \
                or self._last_live_full(node):
            return False
        self.isolated.add(node)
        self.network.partition(f"node{node}")
        self._pending.setdefault(node, now + self.detect_cycles)
        self.events["link_partition"] += 1
        return True

    def _apply_heal(self, node: int, now: float) -> bool:
        if node not in self.isolated:
            return False
        self.isolated.discard(node)
        if node not in self.crashed:
            self.network.heal(f"node{node}")
        if node in self.demoted:
            # demoted behind the partition: its authority is gone (the
            # slot epochs moved on), so it rejoins like a restart —
            # empty of authority, stealing a fresh share that syncs
            # from the live owners.  Its stale pre-partition copies are
            # fenced by the epoch bump and never served.
            self.topology.restart_node(node)
            self.demoted.discard(node)
            if self.on_membership_change is not None:
                self.on_membership_change()
        elif self._pending.pop(node, None) is not None:
            self.cancelled_promotions += 1
        self.events["link_heal"] += 1
        return True

    def _apply_degrade(self, node: int, fault: NodeFaultSpec) -> bool:
        self.network.degrade(f"node{node}", fault.factor,
                             fault.bandwidth_div)
        self.events["link_degrade"] += 1
        return True

    def _apply_restore(self, node: int) -> bool:
        self.network.restore(f"node{node}")
        self.events["link_restore"] += 1
        return True

    # ------------------------------------------------------------------
    # promotion
    # ------------------------------------------------------------------

    def _commit_due_promotions(self, now: float) -> None:
        if not self._pending:  # outside every detection window
            return
        due = sorted(node for node, deadline in self._pending.items()
                     if deadline <= now)
        committed = False
        for node in due:
            del self._pending[node]
            if node not in self.topology.node_ids \
                    or self.topology.num_nodes < 2:
                continue
            slots = self.topology.crash_node(node)
            self.demoted.add(node)
            self.promotions += 1
            self.slots_promoted += len(slots)
            committed = True
            if self.on_promotion is not None:
                self.on_promotion(node, slots)
        if committed and self.on_membership_change is not None:
            self.on_membership_change()

    # ------------------------------------------------------------------

    def _due_after(self, index: int) -> float:
        """The first request index after ``index`` whose
        :meth:`before_request` can change state (``math.inf``: none)."""
        if self._pending:
            return index + 1
        due = (self._script[self._cursor][0]
               if self._cursor < len(self._script) else math.inf)
        lo, hi = self._storm_window
        if index + 1 < hi:
            due = min(due, max(lo, index + 1))
        return due

    def before_request(self, index: int, now: float) -> None:
        """Advance fault state for the request arriving at ``now``.

        A call for an index below :attr:`next_due` is a no-op."""
        while self._cursor < len(self._script) \
                and self._script[self._cursor][0] <= index:
            _, _, action, fault = self._script[self._cursor]
            self._cursor += 1
            self._fire(action, fault.node, fault, now)
        if self._storm is not None:
            lo, hi = self._storm_window
            if lo <= index < hi:
                event = self.schedule.draw()
                if event is not None:
                    self.storm_draws += 1
                    kind = self.payload_rng.choices(
                        self._storm_kinds,
                        weights=self._storm_weights, k=1)[0]
                    node = self.payload_rng.randrange(
                        self._initial_nodes)
                    action = {"crash": "crash", "restart": "restart",
                              "partition": "partition_start",
                              "heal": "partition_stop",
                              "degrade": "degrade_start",
                              "restore": "degrade_stop"}[kind]
                    self._fire(action, node, self._storm, now)
        self._commit_due_promotions(now)
        self.next_due = self._due_after(index)

    def _fire(self, action: str, node: int, fault: NodeFaultSpec,
              now: float) -> None:
        applied = {
            "crash": lambda: self._apply_crash(node, now),
            "restart": lambda: self._apply_restart(node, now),
            "partition_start": lambda: self._apply_partition(node, now),
            "partition_stop": lambda: self._apply_heal(node, now),
            "degrade_start": lambda: self._apply_degrade(node, fault),
            "degrade_stop": lambda: self._apply_restore(node),
        }[action]()
        if not applied:
            self.skipped += 1

    def drain(self, now: float) -> None:
        """End of run: apply any scripted stop events still queued (so
        window telemetry balances) — pending promotions stay pending,
        exactly like an outage cut off by the end of the measurement."""
        while self._cursor < len(self._script):
            index, _, action, fault = self._script[self._cursor]
            self._cursor += 1
            if action.endswith("_stop"):
                self._fire(action, fault.node, fault, now)

    def report(self) -> dict:
        return {
            "events": dict(self.events),
            "skipped": self.skipped,
            "storm_draws": self.storm_draws,
            "promotions": self.promotions,
            "slots_promoted": self.slots_promoted,
            "cancelled_promotions": self.cancelled_promotions,
            "pending_promotions": len(self._pending),
            "detect_cycles": self.detect_cycles,
            "down_at_end": sorted(self.crashed | self.isolated),
            "max_epoch": self.topology.max_epoch,
        }
