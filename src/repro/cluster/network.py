"""Cluster network: per-hop latency, serialization cost, link queues.

A deliberately small model (DESIGN.md section 10 records its limits):

* every directed ``(src, dst)`` pair is an independent link that can
  serialise one transfer at a time — two overlapping transfers on the
  same link queue, so a hot node's response link becomes a queueing
  bottleneck exactly like the DRAM channel model in
  :mod:`repro.mem.dram`;
* one transfer costs ``bytes / bytes_per_cycle`` serialization (paid
  on the link) plus half the configured RTT propagation (paid by the
  message, not the link — the wire pipelines);
* ``rtt_cycles == 0`` is the *quiet network*: every transfer is free
  and the link table stays empty, so a quiet-network cluster run adds
  zero cycles anywhere — the bit-identity anchor for one-node runs.

Link occupancy is an **interval schedule** (:class:`GapSchedule`), not
a single high-water clock: a transfer claims the earliest
serialization-sized gap at or after its departure time.  The overlay
simulates requests in arrival order but *reserves* each request's
whole trajectory — including a response that leaves long after
queueing — before later requests' earlier control messages are
processed.  A single ``free_at`` clock would make those early messages
wait behind far-future responses (an artifact of processing order, not
of the modelled network); gap scheduling keeps the timeline causal no
matter the order reservations are made in.  The accelerator nodes'
lookup pipelines (:mod:`repro.cluster.service`) share the same
schedule for the same reason.  No claim departs before the arrival of
the request that makes it, so the overlay periodically releases every
interval that ended by the current arrival
(:meth:`ClusterNetwork.release`): a schedule holds the recent past, not
the whole run.

Faults (DESIGN.md section 13) are *endpoint* state, matching the
fleet's traffic shape (every message has a client on one side):

* a **partitioned** endpoint drops every message touching it — the
  transfer returns ``math.inf`` and reserves nothing, the drop is
  counted per link;
* a **degraded** endpoint multiplies propagation delay and divides
  bandwidth for every message touching it (both endpoints degraded:
  the worse factor wins) — the transfer still completes, counted per
  link as degraded.

Partitions and degradations apply on quiet networks too (a dropped
message is dropped even when transfers are free), but the quiet
network still reserves and counts nothing for delivered transfers.

The model is deterministic by construction: no random jitter (the
variance the tail sees comes from real queueing on links and cores,
not injected noise), so a cluster timeline is a pure function of the
seed-derived request stream.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Set, Tuple

from ..errors import ClusterError

__all__ = ["ClusterNetwork", "DEFAULT_BYTES_PER_CYCLE", "GapSchedule",
           "REQUEST_HEADER_BYTES"]

#: link bandwidth: bytes serialised per core cycle.  8 B/cycle at
#: 2.66 GHz is ~21 GB/s — a sensible share of a modern NIC, and small
#: enough that large-value responses on a hot link queue visibly.
DEFAULT_BYTES_PER_CYCLE = 8.0

#: fixed per-message overhead (protocol framing + key) in bytes
REQUEST_HEADER_BYTES = 64


class GapSchedule:
    """Busy intervals of one serial resource (a link, a pipeline).

    :meth:`claim` takes the earliest ``duration``-sized gap at or after
    the requested time, so reservations made out of time order stay
    causal.  Claims arrive mostly in time order, so a claim starting at
    or after the last busy end appends in O(1); an earlier one falls
    back to a bisect for the first interval it could overlap and a
    forward scan for the first fitting gap.

    :meth:`release` bounds the list: once the owner knows that no later
    claim starts before some *horizon*, the intervals that ended by it
    can never be overlapped or scanned again, and are dropped.
    """

    __slots__ = ("intervals", "tail")

    def __init__(self) -> None:
        #: sorted, non-overlapping (start, end) busy intervals
        self.intervals: List[Tuple[float, float]] = []
        #: the last busy end (the end of ``intervals[-1]``)
        self.tail = -math.inf

    def claim(self, at: float, duration: float) -> float:
        """Occupy the earliest fitting gap; returns its start time."""
        intervals = self.intervals
        if at >= self.tail:
            end = at + duration
            intervals.append((at, end))
            self.tail = end
            return at
        # first interval that could overlap [at, at + duration)
        i = bisect.bisect_right(intervals, (at, math.inf))
        if i and intervals[i - 1][1] > at:
            i -= 1  # the previous interval is still busy at ``at``
        start = at
        while i < len(intervals):
            busy_start, busy_end = intervals[i]
            if start + duration <= busy_start:
                break  # the gap before interval i fits
            if busy_end > start:
                start = busy_end
            i += 1
        end = start + duration
        intervals.insert(i, (start, end))
        if i == len(intervals) - 1:
            self.tail = end
        return start

    def release(self, horizon: float) -> None:
        """Drop the leading intervals whose end is at or before
        ``horizon``; ``tail`` is kept.

        The caller guarantees that every later claim has ``at >=
        horizon``.  Such a claim's bisect lands past every dropped
        interval, and none of them is busy at ``at``, so its start time
        is what it would have been with them kept.  Intervals are
        sorted and never overlap, so their ends are sorted too and the
        scan stops at the first interval it keeps.
        """
        intervals = self.intervals
        n = 0
        for _start, end in intervals:
            if end > horizon:
                break
            n += 1
        if n:
            del intervals[:n]


class _Link:
    """One directed link: its schedule and cumulative counters."""

    __slots__ = ("schedule", "reservations", "bytes", "wait_cycles",
                 "drops", "degraded")

    def __init__(self) -> None:
        self.schedule = GapSchedule()
        self.reservations = 0
        self.bytes = 0
        self.wait_cycles = 0.0
        self.drops = 0
        self.degraded = 0

    def report(self) -> Dict[str, float]:
        return {"reservations": self.reservations, "bytes": self.bytes,
                "wait_cycles": self.wait_cycles, "drops": self.drops,
                "degraded": self.degraded}


class ClusterNetwork:
    """Seeded-free deterministic latency/bandwidth/contention model."""

    def __init__(self, rtt_cycles: float,
                 bytes_per_cycle: float = DEFAULT_BYTES_PER_CYCLE) -> None:
        if rtt_cycles < 0:
            raise ClusterError("network RTT cannot be negative")
        if bytes_per_cycle <= 0:
            raise ClusterError("network bandwidth must be positive")
        self.rtt_cycles = float(rtt_cycles)
        self.bytes_per_cycle = float(bytes_per_cycle)
        #: directed (src, dst) -> schedule + counters, created on the
        #: link's first delivered transfer or drop
        self._links: Dict[Tuple[str, str], _Link] = {}
        # -- fault state ----------------------------------------------
        #: endpoints currently dropping every message
        self._partitioned: Set[str] = set()
        #: endpoint -> (latency multiplier, bandwidth divisor)
        self._degraded: Dict[str, Tuple[float, float]] = {}
        #: propagation delay of a healthy transfer
        self._half_rtt = self.rtt_cycles / 2.0
        # -- telemetry ------------------------------------------------
        #: cycles transfers spent waiting for a busy link, summed in
        #: transfer order (the other totals are sums of the per-link
        #: counters, see :meth:`report`)
        self.link_wait_cycles = 0.0

    @property
    def quiet(self) -> bool:
        """A zero-RTT network: transfers are free, links untracked."""
        return self.rtt_cycles == 0.0

    # ------------------------------------------------------------------
    # fault state
    # ------------------------------------------------------------------

    def partition(self, endpoint: str) -> None:
        """Isolate ``endpoint``: every message touching it is dropped."""
        self._partitioned.add(endpoint)

    def heal(self, endpoint: str) -> None:
        """Lift a partition (no-op if the endpoint was reachable)."""
        self._partitioned.discard(endpoint)

    def degrade(self, endpoint: str, latency_mult: float = 1.0,
                bandwidth_div: float = 1.0) -> None:
        """Degrade every message touching ``endpoint``: multiply its
        propagation delay, divide its serialization bandwidth."""
        if latency_mult < 1.0 or bandwidth_div < 1.0:
            raise ClusterError(
                "degrade factors must be >= 1 (use restore() to lift)")
        self._degraded[endpoint] = (float(latency_mult),
                                    float(bandwidth_div))

    def restore(self, endpoint: str) -> None:
        """Lift a degradation (no-op if the endpoint was healthy)."""
        self._degraded.pop(endpoint, None)

    def reachable(self, src: str, dst: str) -> bool:
        """Whether a message from ``src`` to ``dst`` would deliver."""
        return (src not in self._partitioned
                and dst not in self._partitioned)

    def _factors(self, src: str, dst: str) -> Tuple[float, float]:
        """Combined (latency multiplier, bandwidth divisor): the worse
        endpoint wins on each axis."""
        lat, bw = 1.0, 1.0
        for endpoint in (src, dst):
            factors = self._degraded.get(endpoint)
            if factors is not None:
                lat = max(lat, factors[0])
                bw = max(bw, factors[1])
        return lat, bw

    def _link(self, src: str, dst: str) -> _Link:
        link = self._links.get((src, dst))
        if link is None:
            link = self._links[(src, dst)] = _Link()
        return link

    # ------------------------------------------------------------------
    # transfers
    # ------------------------------------------------------------------

    def one_way(self, src: str, dst: str, nbytes: int, at: float) -> float:
        """Deliver ``nbytes`` from ``src`` to ``dst``, departing ``at``.

        Returns the delivery time — ``math.inf`` when either endpoint
        is partitioned (the message is dropped; nothing is reserved,
        the caller's timeout machinery pays the price).
        A negative byte count is rejected before anything else,
        on every network and link state.
        """
        if nbytes < 0:
            raise ClusterError("cannot transfer a negative byte count")
        partitioned = self._partitioned
        if partitioned and (src in partitioned or dst in partitioned):
            self._link(src, dst).drops += 1
            return math.inf
        if not self.rtt_cycles:
            return at  # the quiet network
        link = self._links.get((src, dst))
        if link is None:
            link = self._links[(src, dst)] = _Link()
        degraded = self._degraded
        if degraded and (src in degraded or dst in degraded):
            lat_mult, bw_div = self._factors(src, dst)
            serialization = nbytes * bw_div / self.bytes_per_cycle
            propagation = self.rtt_cycles * lat_mult / 2.0
            if lat_mult > 1.0 or bw_div > 1.0:
                link.degraded += 1
        else:
            # the healthy link: no factor lookups, a precomputed half-RTT
            serialization = nbytes / self.bytes_per_cycle
            propagation = self._half_rtt
        start = link.schedule.claim(at, serialization)
        wait = start - at
        self.link_wait_cycles += wait
        link.reservations += 1
        link.bytes += nbytes
        link.wait_cycles += wait
        return start + serialization + propagation

    def release(self, horizon: float) -> None:
        """Trim every link's schedule to ``horizon``: no later transfer
        may depart before it (see :meth:`GapSchedule.release`)."""
        for link in self._links.values():
            link.schedule.release(horizon)

    def report(self) -> dict:
        links = self._links.values()
        return {
            "rtt_cycles": self.rtt_cycles,
            "bytes_per_cycle": self.bytes_per_cycle,
            "transfers": sum(link.reservations for link in links),
            "bytes_moved": sum(link.bytes for link in links),
            "link_wait_cycles": self.link_wait_cycles,
            "drops": sum(link.drops for link in links),
            "degraded_transfers": sum(link.degraded for link in links),
            "links": dict(sorted(
                (f"{src}->{dst}", link.report())
                for (src, dst), link in self._links.items())),
        }
