"""Unit tests for the cluster network model (`repro.cluster.network`)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.network import (
    DEFAULT_BYTES_PER_CYCLE,
    REQUEST_HEADER_BYTES,
    ClusterNetwork,
    GapSchedule,
)
from repro.errors import ClusterError

RTT = 200.0


class TestQuietNetwork:
    def test_zero_rtt_transfers_are_free(self):
        net = ClusterNetwork(0.0)
        assert net.quiet
        assert net.one_way("a", "b", 10_000, at=42.0) == 42.0
        assert net.one_way("b", "a", 128, at=7.0) == 7.0
        # and untracked: the quiet network is the bit-identity anchor
        report = net.report()
        assert report["transfers"] == 0
        assert report["bytes_moved"] == 0

    def test_validation(self):
        with pytest.raises(ClusterError):
            ClusterNetwork(-1.0)
        with pytest.raises(ClusterError):
            ClusterNetwork(100.0, bytes_per_cycle=0.0)
        with pytest.raises(ClusterError):
            ClusterNetwork(100.0).one_way("a", "b", -1, 0.0)


class TestNegativeBytes:
    """A negative byte count is rejected before any other check, on
    every network and link state."""

    def test_rejected_on_a_quiet_network(self):
        with pytest.raises(ClusterError):
            ClusterNetwork(0.0).one_way("c0", "n1", -5, 10.0)

    def test_rejected_on_a_partitioned_link_without_a_drop(self):
        net = ClusterNetwork(300.0)
        net.partition("n1")
        with pytest.raises(ClusterError):
            net.one_way("c0", "n1", -5, 10.0)
        report = net.report()
        assert report["drops"] == 0
        assert report["links"] == {}

    def test_rejected_on_a_healthy_network(self):
        net = ClusterNetwork(300.0)
        with pytest.raises(ClusterError):
            net.one_way("c0", "n1", -5, 10.0)
        assert net.report()["transfers"] == 0


class TestLatencyMath:
    def test_one_way_is_serialization_plus_half_rtt(self):
        net = ClusterNetwork(RTT, bytes_per_cycle=8.0)
        delivery = net.one_way("a", "b", 80, at=0.0)
        assert delivery == pytest.approx(80 / 8.0 + RTT / 2.0)

    def test_round_trip_pays_both_directions(self):
        net = ClusterNetwork(RTT, bytes_per_cycle=8.0)
        arrive = net.one_way("a", "b", 64, at=0.0)
        delivery = net.one_way("b", "a", 128, at=arrive)
        assert delivery == pytest.approx(64 / 8.0 + 128 / 8.0 + RTT)


class TestLinkContention:
    def test_same_link_transfers_serialise(self):
        net = ClusterNetwork(RTT, bytes_per_cycle=8.0)
        first = net.one_way("a", "b", 800, at=0.0)   # busy [0, 100)
        second = net.one_way("a", "b", 800, at=0.0)  # queues behind it
        assert second == pytest.approx(first + 100.0)
        assert net.link_wait_cycles == pytest.approx(100.0)

    def test_directed_links_are_independent(self):
        net = ClusterNetwork(RTT, bytes_per_cycle=8.0)
        forward = net.one_way("a", "b", 800, at=0.0)
        reverse = net.one_way("b", "a", 800, at=0.0)
        assert reverse == forward  # no shared queue
        assert net.link_wait_cycles == 0.0

    def test_interval_scheduling_keeps_the_timeline_causal(self):
        """A transfer reserved far in the future must not delay a
        later-*processed* transfer that departs earlier — the overlay
        reserves whole request trajectories in arrival order, so
        responses land on links long before earlier control messages
        are processed (the single free-at clock bug)."""
        net = ClusterNetwork(RTT, bytes_per_cycle=8.0)
        # a response reserved at t=10000 (processed first)
        late = net.one_way("n0", "c", 800, at=10_000.0)
        assert late == pytest.approx(10_100.0 + RTT / 2.0)
        # an early MOVED reply processed afterwards: fits in the gap
        early = net.one_way("n0", "c", 48, at=0.0)
        assert early == pytest.approx(48 / 8.0 + RTT / 2.0)
        assert net.link_wait_cycles == 0.0

    def test_gap_scheduling_fills_earliest_fit(self):
        net = ClusterNetwork(RTT, bytes_per_cycle=8.0)
        net.one_way("a", "b", 80, at=0.0)     # busy [0, 10)
        net.one_way("a", "b", 80, at=50.0)    # busy [50, 60)
        # a 40-byte (5-cycle) transfer at t=2 fits the [10, 50) gap
        delivery = net.one_way("a", "b", 40, at=2.0)
        assert delivery == pytest.approx(10.0 + 5.0 + RTT / 2.0)
        # a 400-byte (50-cycle) transfer at t=2 must wait past both
        delivery = net.one_way("a", "b", 400, at=2.0)
        assert delivery == pytest.approx(60.0 + 50.0 + RTT / 2.0)


class TestTelemetry:
    def test_report_counts_transfers_and_bytes(self):
        net = ClusterNetwork(RTT)
        net.one_way("a", "b", REQUEST_HEADER_BYTES, at=0.0)
        net.one_way("b", "a", 128, at=5.0)
        report = net.report()
        assert report["transfers"] == 2
        assert report["bytes_moved"] == REQUEST_HEADER_BYTES + 128
        assert report["rtt_cycles"] == RTT
        assert report["bytes_per_cycle"] == DEFAULT_BYTES_PER_CYCLE

    def test_per_link_counters(self):
        """report()['links'] attributes reservations, bytes, and wait
        cycles to each directed link (PR 9 satellite)."""
        net = ClusterNetwork(RTT, bytes_per_cycle=8.0)
        net.one_way("a", "b", 800, at=0.0)   # busy [0, 100)
        net.one_way("a", "b", 800, at=0.0)   # waits 100 cycles
        net.one_way("b", "a", 160, at=0.0)
        links = net.report()["links"]
        assert links["a->b"]["reservations"] == 2
        assert links["a->b"]["bytes"] == 1600
        assert links["a->b"]["wait_cycles"] == pytest.approx(100.0)
        assert links["b->a"]["reservations"] == 1
        assert links["b->a"]["bytes"] == 160
        assert links["b->a"]["wait_cycles"] == 0.0
        for stats in links.values():
            assert stats["drops"] == 0
            assert stats["degraded"] == 0


class TestPartition:
    def test_partitioned_endpoint_drops_both_directions(self):
        net = ClusterNetwork(RTT)
        net.partition("n1")
        assert not net.reachable("c0", "n1")
        assert not net.reachable("n1", "c0")
        assert math.isinf(net.one_way("c0", "n1", 64, at=0.0))
        assert math.isinf(net.one_way("n1", "c0", 64, at=0.0))

    def test_drops_reserve_nothing_and_are_counted_per_link(self):
        net = ClusterNetwork(RTT, bytes_per_cycle=8.0)
        net.partition("n1")
        net.one_way("c0", "n1", 800, at=0.0)
        report = net.report()
        assert report["drops"] == 1
        assert report["transfers"] == 0
        assert report["bytes_moved"] == 0
        assert report["links"]["c0->n1"]["drops"] == 1
        assert report["links"]["c0->n1"]["reservations"] == 0
        # the link's timeline is untouched: a post-heal transfer at the
        # same instant starts immediately
        net.heal("n1")
        assert net.reachable("c0", "n1")
        delivery = net.one_way("c0", "n1", 800, at=0.0)
        assert delivery == pytest.approx(100.0 + RTT / 2.0)

    def test_partition_drops_even_on_a_quiet_network(self):
        net = ClusterNetwork(0.0)
        net.partition("n0")
        assert math.isinf(net.one_way("c0", "n0", 64, at=0.0))
        assert net.report()["drops"] == 1

    def test_heal_is_idempotent(self):
        net = ClusterNetwork(RTT)
        net.heal("never-partitioned")
        assert net.reachable("a", "never-partitioned")


class TestDegrade:
    def test_latency_multiplier_stretches_propagation_only(self):
        net = ClusterNetwork(RTT, bytes_per_cycle=8.0)
        net.degrade("n1", latency_mult=3.0)
        delivery = net.one_way("c0", "n1", 80, at=0.0)
        assert delivery == pytest.approx(80 / 8.0 + 3.0 * RTT / 2.0)

    def test_bandwidth_divisor_stretches_serialization_only(self):
        net = ClusterNetwork(RTT, bytes_per_cycle=8.0)
        net.degrade("n1", bandwidth_div=4.0)
        delivery = net.one_way("c0", "n1", 80, at=0.0)
        assert delivery == pytest.approx(4.0 * 80 / 8.0 + RTT / 2.0)

    def test_worse_endpoint_wins_per_axis(self):
        net = ClusterNetwork(RTT, bytes_per_cycle=8.0)
        net.degrade("a", latency_mult=2.0, bandwidth_div=1.0)
        net.degrade("b", latency_mult=1.0, bandwidth_div=4.0)
        delivery = net.one_way("a", "b", 80, at=0.0)
        assert delivery == pytest.approx(4.0 * 80 / 8.0 + 2.0 * RTT / 2.0)

    def test_degraded_transfers_are_counted_and_restorable(self):
        net = ClusterNetwork(RTT, bytes_per_cycle=8.0)
        net.degrade("n1", latency_mult=2.0)
        net.one_way("c0", "n1", 80, at=0.0)
        net.restore("n1")
        clean = net.one_way("c0", "n1", 80, at=500.0)
        assert clean == pytest.approx(500.0 + 80 / 8.0 + RTT / 2.0)
        report = net.report()
        assert report["degraded_transfers"] == 1
        assert report["links"]["c0->n1"]["degraded"] == 1
        assert report["links"]["c0->n1"]["reservations"] == 2

    def test_degrade_factors_below_one_are_rejected(self):
        net = ClusterNetwork(RTT)
        with pytest.raises(ClusterError):
            net.degrade("n1", latency_mult=0.5)
        with pytest.raises(ClusterError):
            net.degrade("n1", bandwidth_div=0.9)


# ----------------------------------------------------------------------
# the transfer path against a reference model
# ----------------------------------------------------------------------

ENDPOINTS = ("c0", "c1", "n0", "n1", "n2")

#: one step of a network script: a transfer, or a fault-state change
steps = st.one_of(
    st.tuples(st.just("send"), st.sampled_from(ENDPOINTS),
              st.sampled_from(ENDPOINTS),
              st.integers(min_value=0, max_value=4096),
              st.floats(min_value=0.0, max_value=5_000.0)),
    st.tuples(st.just("partition"), st.sampled_from(ENDPOINTS)),
    st.tuples(st.just("heal"), st.sampled_from(ENDPOINTS)),
    st.tuples(st.just("degrade"), st.sampled_from(ENDPOINTS),
              st.sampled_from((1.0, 1.5, 2.0, 3.0)),
              st.sampled_from((1.0, 2.0, 4.0))),
    st.tuples(st.just("restore"), st.sampled_from(ENDPOINTS)),
)


class TestAgainstReference:
    """Every delivery time and every report total of a scripted run
    equals a reference model kept in this test: the transfer
    arithmetic on one schedule per link, with running totals counted
    by the test itself."""

    @settings(max_examples=150, deadline=None)
    @given(script=st.lists(steps, min_size=1, max_size=60),
           rtt=st.sampled_from((0.0, 200.0, 300.0)))
    def test_deliveries_and_totals_match(self, script, rtt):
        net = ClusterNetwork(rtt, bytes_per_cycle=8.0)
        partitioned, degraded, schedules = set(), {}, {}
        totals = dict(transfers=0, bytes_moved=0, drops=0,
                      degraded_transfers=0)
        wait = 0.0
        for step in script:
            kind = step[0]
            if kind == "partition":
                net.partition(step[1])
                partitioned.add(step[1])
            elif kind == "heal":
                net.heal(step[1])
                partitioned.discard(step[1])
            elif kind == "degrade":
                net.degrade(step[1], step[2], step[3])
                degraded[step[1]] = (step[2], step[3])
            elif kind == "restore":
                net.restore(step[1])
                degraded.pop(step[1], None)
            else:
                _, src, dst, nbytes, at = step
                got = net.one_way(src, dst, nbytes, at)
                if src in partitioned or dst in partitioned:
                    assert got == math.inf
                    totals["drops"] += 1
                    continue
                if not rtt:
                    assert got == at
                    continue
                lat = max([1.0] + [degraded[e][0] for e in (src, dst)
                                   if e in degraded])
                bw = max([1.0] + [degraded[e][1] for e in (src, dst)
                                  if e in degraded])
                serialization = nbytes * bw / 8.0
                start = schedules.setdefault(
                    (src, dst), GapSchedule()).claim(at, serialization)
                want = start + serialization + rtt * lat / 2.0
                assert got == want
                wait += start - at
                totals["transfers"] += 1
                totals["bytes_moved"] += nbytes
                if lat > 1.0 or bw > 1.0:
                    totals["degraded_transfers"] += 1
        report = net.report()
        assert {name: report[name] for name in totals} == totals
        assert report["link_wait_cycles"] == wait
        links = report["links"].values()
        assert totals == dict(
            transfers=sum(link["reservations"] for link in links),
            bytes_moved=sum(link["bytes"] for link in links),
            drops=sum(link["drops"] for link in links),
            degraded_transfers=sum(link["degraded"] for link in links))
