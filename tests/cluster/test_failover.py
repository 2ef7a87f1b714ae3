"""Tests for cluster failover: fault grammar, scheduler, oracle (PR 9).

Three layers:

* the ``node_fault_plan`` grammar (eager validation, exact round trip);
* the :class:`FailoverScheduler` state machine driven directly against
  a small topology/network — detection windows, promotion commit,
  cancellation, drain, storm determinism;
* end-to-end ``run_cluster`` runs — per-policy determinism, the
  lazy-vs-eager direction pin on post-promotion MOVED redirects, the
  acked-write oracle's verdict (zero violations with a replica; loud
  loss telemetry without one), and the resilient client's counters.
"""

import dataclasses
import math

import pytest

from repro.cluster.failover import (
    DEFAULT_DEGRADE_FACTOR,
    FailoverScheduler,
    NodeFaultSpec,
    parse_node_fault,
)
from repro.cluster.network import ClusterNetwork
from repro.cluster.topology import ClusterTopology
from repro.errors import FaultInjectionError
from repro.sim.config import RunConfig
from repro.sim.engine import run_experiment

SLOTS = 128


def _config(**overrides):
    defaults = dict(
        program="unordered_map",
        frontend="stlt",
        num_keys=400,
        warmup_ops=160,
        measure_ops=80,
        num_cores=2,
        seed=13,
        nodes=3,
        replicas=1,
        net_rtt_cycles=50.0,
        failover_detect_cycles=500.0,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


# ----------------------------------------------------------------------
# grammar
# ----------------------------------------------------------------------

class TestParseNodeFault:
    def test_crash_and_restart(self):
        crash = parse_node_fault("crash:node=1,at=0.4")
        assert (crash.kind, crash.node, crash.at) == ("crash", 1, 0.4)
        restart = parse_node_fault("restart:node=1,at=0.8")
        assert (restart.kind, restart.node, restart.at) == \
            ("restart", 1, 0.8)

    def test_partition_window(self):
        fault = parse_node_fault("partition:node=2,start=0.3,stop=0.6")
        assert (fault.kind, fault.node) == ("partition", 2)
        assert (fault.start, fault.stop) == (0.3, 0.6)

    def test_degrade_defaults_and_overrides(self):
        fault = parse_node_fault("degrade:node=0")
        assert fault.factor == DEFAULT_DEGRADE_FACTOR
        assert fault.bandwidth_div == DEFAULT_DEGRADE_FACTOR
        fault = parse_node_fault("degrade:node=0,factor=2,bw=8")
        assert (fault.factor, fault.bandwidth_div) == (2.0, 8.0)

    def test_storm(self):
        fault = parse_node_fault("storm:rate=0.01,start=0.2,stop=0.9")
        assert (fault.kind, fault.rate) == ("storm", 0.01)
        assert (fault.start, fault.stop) == (0.2, 0.9)

    @pytest.mark.parametrize("spec", [
        "crash:node=1,at=0.4",
        "restart:node=3,at=1",
        "partition:node=2,start=0.3,stop=0.6",
        "degrade:node=0,factor=2,bw=8,start=0.1,stop=0.9",
        "storm:rate=0.005",
    ])
    def test_round_trip_through_to_spec(self, spec):
        fault = parse_node_fault(spec)
        assert parse_node_fault(fault.to_spec()) == fault

    @pytest.mark.parametrize("bad", [
        "meteor:node=0",                       # unknown kind
        "crash",                               # no colon
        "crash:node=1,at=2.0",                 # at out of range
        "crash:at=0.5",                        # missing node
        "crash:node=-1,at=0.5",                # negative node
        "partition:node=1,start=0.6,stop=0.3",  # inverted window
        "degrade:node=0,factor=0.5",           # factor below one
        "storm:rate=0",                        # rate must be positive
        "storm:node=1,rate=0.1",               # storm takes no node
        "crash:node=1,when=0.5",               # unknown parameter
        "crash:node",                          # not key=value
        "crash:node=x,at=0.5",                 # non-numeric value
    ])
    def test_bad_specs_fail_eagerly(self, bad):
        with pytest.raises(FaultInjectionError):
            parse_node_fault(bad)

    def test_config_validates_plans_eagerly(self):
        with pytest.raises(FaultInjectionError):
            RunConfig(node_fault_plan=("meteor:node=0",))
        with pytest.raises(FaultInjectionError):
            # node bounds checked once the cluster overlay is armed
            _config(node_fault_plan=("crash:node=7,at=0.5",))
        # fleet-only bounds stay quiet while the overlay is off
        RunConfig(node_fault_plan=("crash:node=7,at=0.5",))


# ----------------------------------------------------------------------
# the scheduler state machine
# ----------------------------------------------------------------------

def _scheduler(plan_specs, nodes=3, replicas=1, total=100,
               detect=1_000.0, seed=13):
    topology = ClusterTopology(nodes, replicas=replicas, num_slots=SLOTS)
    network = ClusterNetwork(100.0)
    plan = tuple(parse_node_fault(s) for s in plan_specs)
    scheduler = FailoverScheduler(topology, network, plan, seed, total,
                                  detect_cycles=detect)
    return scheduler, topology, network


class TestFailoverScheduler:
    def test_crash_partitions_then_promotes_after_detection(self):
        scheduler, topology, network = _scheduler(
            ["crash:node=1,at=0.0"])
        scheduler.before_request(0, now=0.0)
        # dead to the network immediately, but not yet demoted
        assert not network.reachable("client0", "node1")
        assert 1 in topology.node_ids
        assert scheduler.promotions == 0
        # the first arrival past the detector's deadline commits
        scheduler.before_request(1, now=1_000.0)
        assert 1 not in topology.node_ids
        assert 1 in topology.down_nodes
        assert scheduler.promotions == 1
        assert scheduler.slots_promoted > 0
        assert topology.max_epoch >= 1

    def test_promotion_lands_on_the_ring_successor(self):
        scheduler, topology, _ = _scheduler(["crash:node=1,at=0.0"])
        victim_slots = topology.slots_of(1)
        successor_of = {slot: topology.replicas_of(slot)[0]
                        for slot in victim_slots}
        scheduler.before_request(0, now=0.0)
        scheduler.before_request(1, now=1_000.0)
        for slot, successor in successor_of.items():
            assert topology.owner(slot) == successor

    def test_heal_inside_the_window_cancels_the_promotion(self):
        scheduler, topology, network = _scheduler(
            ["partition:node=1,start=0.0,stop=0.5"],
            detect=1e9)
        scheduler.before_request(0, now=0.0)
        assert not network.reachable("client0", "node1")
        scheduler.before_request(50, now=10.0)  # the stop edge fires
        assert network.reachable("client0", "node1")
        assert scheduler.cancelled_promotions == 1
        assert scheduler.promotions == 0
        assert 1 in topology.node_ids  # never demoted

    def test_restart_inside_the_window_cancels_the_promotion(self):
        scheduler, topology, _ = _scheduler(
            ["crash:node=1,at=0.0", "restart:node=1,at=0.5"],
            detect=1e9)
        scheduler.before_request(0, now=0.0)
        scheduler.before_request(50, now=10.0)
        assert scheduler.cancelled_promotions == 1
        assert scheduler.promotions == 0
        assert 1 in topology.node_ids

    def test_restart_after_promotion_rejoins_and_rebalances(self):
        scheduler, topology, network = _scheduler(
            ["crash:node=1,at=0.0", "restart:node=1,at=0.5"],
            detect=100.0)
        scheduler.before_request(0, now=0.0)
        scheduler.before_request(10, now=500.0)  # promotion commits
        assert 1 not in topology.node_ids
        scheduler.before_request(50, now=600.0)  # restart fires
        assert 1 in topology.node_ids
        assert 1 not in topology.down_nodes
        assert network.reachable("client0", "node1")
        counts = topology.counts()
        assert sum(counts.values()) == SLOTS
        # the rejoiner steals an equal share; the survivors' remainder
        # can be lopsided by the ring-successor promotion, but never by
        # more than the promotion skew itself
        assert counts[1] == SLOTS // 3
        assert max(counts.values()) - min(counts.values()) <= 2
        assert scheduler.events["node_restart"] == 1

    def test_infeasible_events_are_skipped_not_applied(self):
        # restarting a node that never crashed is a no-op, loudly
        scheduler, _, _ = _scheduler(["restart:node=2,at=0.0"])
        scheduler.before_request(0, now=0.0)
        assert scheduler.skipped == 1
        assert scheduler.events["node_restart"] == 0

    def test_drain_applies_pending_stop_events_only(self):
        scheduler, _, network = _scheduler(
            ["degrade:node=0,factor=2,start=0.0,stop=0.9"])
        scheduler.before_request(0, now=0.0)  # start edge fires
        assert scheduler.events["link_degrade"] == 1
        # the run ends before index 90 — drain balances the window
        scheduler.drain(now=5_000.0)
        assert scheduler.events["link_restore"] == 1
        report = scheduler.report()
        assert report["events"]["link_degrade"] == 1
        assert report["events"]["link_restore"] == 1

    def test_storm_is_deterministic_per_seed(self):
        def run(seed):
            scheduler, topology, _ = _scheduler(
                ["storm:rate=0.3"], nodes=4, replicas=0, seed=seed)
            for index in range(100):
                scheduler.before_request(index, now=float(index * 50))
            return scheduler.report(), tuple(topology.assignment())

        report_a, assign_a = run(13)
        report_b, assign_b = run(13)
        assert report_a == report_b
        assert assign_a == assign_b
        assert report_a["storm_draws"] > 0
        report_c, _ = run(14)
        assert report_a != report_c  # the streams actually derive


# ----------------------------------------------------------------------
# end-to-end: the overlay under a fault plan
# ----------------------------------------------------------------------

class TestDueTest:
    """The cluster loop calls ``before_request`` only at indexes at or
    past ``next_due``.  Every event must still fire at the request (and
    with the arrival time) where calling on every request fires it."""

    TOTAL = 200
    #: a crash at request 0 and its restart at the last request, a
    #: partition window, and a storm window
    PLAN = ["crash:node=1,at=0", "restart:node=1,at=1",
            "partition:node=2,start=0.3,stop=0.35",
            "storm:rate=0.2,start=0.6,stop=0.7"]
    #: the crash at time 0 is detected at 250, between the arrivals of
    #: requests 6 (222) and 7 (264)
    DETECT = 250.0

    @staticmethod
    def _now(index):
        return 37.0 * index + 5.0 * (index % 3)

    @staticmethod
    def _state(scheduler, topology, network):
        # the stream states catch a skipped storm draw that fired no
        # event
        return (scheduler.report(), sorted(scheduler.demoted),
                tuple(topology.assignment()),
                [network.reachable("client0", f"node{n}")
                 for n in range(4)],
                scheduler.schedule.rng.getstate(),
                scheduler.payload_rng.getstate())

    def test_skipping_undue_requests_changes_nothing(self):
        every, every_topo, every_net = _scheduler(
            self.PLAN, nodes=4, total=self.TOTAL, detect=self.DETECT)
        due, due_topo, due_net = _scheduler(
            self.PLAN, nodes=4, total=self.TOTAL, detect=self.DETECT)
        called = []
        promoted_at = None
        for index in range(self.TOTAL):
            now = self._now(index)
            every.before_request(index, now)
            if index >= due.next_due:
                due.before_request(index, now)
                called.append(index)
            assert self._state(due, due_topo, due_net) \
                == self._state(every, every_topo, every_net), index
            if promoted_at is None and every.promotions:
                promoted_at = index
        # the events fired where the plan puts them ...
        assert called[0] == 0
        assert called[-1] == self.TOTAL - 1
        assert every.events["node_crash"] == 1
        assert every.events["node_restart"] == 1
        assert every.events["link_partition"] >= 1
        assert every.storm_draws > 0
        assert promoted_at == 7
        # ... every storm-window request was due ...
        assert set(range(120, 140)) <= set(called)
        # ... and the test skipped most requests, so it checks a skip
        assert len(called) < self.TOTAL // 2

    def test_an_empty_plan_is_never_due(self):
        scheduler, _, _ = _scheduler([])
        assert scheduler.next_due == math.inf


PLAN = ("crash:node=1,at=0.4",)


class TestFailoverRuns:
    def test_same_seed_and_plan_is_bit_deterministic_per_policy(self):
        for policy in ("lazy", "eager"):
            config = _config(node_fault_plan=PLAN, repair_policy=policy)
            a = run_experiment(config)
            b = run_experiment(dataclasses.replace(config))
            assert a.cluster == b.cluster
            assert a.to_dict() == b.to_dict()

    def test_lazy_pays_redirects_eager_pays_pushes(self):
        """The repair-policy A/B's direction pin: after a promotion,
        lazy clients discover the new owner by MOVED; the eager
        broadcast already pushed it, so eager's post-promotion MOVED
        count is zero and strictly below lazy's."""
        lazy = run_experiment(
            _config(node_fault_plan=PLAN, repair_policy="lazy")).cluster
        eager = run_experiment(
            _config(node_fault_plan=PLAN, repair_policy="eager")).cluster
        assert lazy["failover"]["promotions"] >= 1
        assert eager["failover"]["promotions"] >= 1
        assert eager["failover"]["post_promotion_moved"] == 0
        assert lazy["failover"]["post_promotion_moved"] > 0
        assert eager["eager_repairs"] > 0
        assert lazy["eager_repairs"] == 0

    def test_acked_write_oracle_holds_with_a_replica(self):
        cluster = run_experiment(
            _config(node_fault_plan=PLAN)).cluster
        assert cluster["writes"] > 0
        assert cluster["acked_writes"] > 0
        assert cluster["failover_violations"] == 0
        assert cluster["acked_write_losses"] == 0
        assert cluster["failover"]["loss_window"] is None

    def test_replicaless_losses_are_telemetry_never_silent(self):
        """With no replica, a crash destroys acked data: the run
        completes (no exception), but the losses and their request
        window are reported loudly."""
        cluster = run_experiment(
            _config(replicas=0, node_fault_plan=PLAN)).cluster
        assert cluster["failover_violations"] == 0
        assert cluster["acked_write_losses"] > 0
        window = cluster["failover"]["loss_window"]
        assert window is not None and window[0] <= window[1]
        assert cluster["failover"]["loss_events"] > 0

    def test_resilient_client_times_out_and_survives(self):
        cluster = run_experiment(
            _config(node_fault_plan=PLAN)).cluster
        resilience = cluster["resilience"]
        assert resilience is not None
        assert resilience["timeouts"] > 0
        # failed requests still account in the merged histogram (the
        # run would have raised 'lost requests' otherwise) and the
        # fleet kept serving
        assert cluster["requests"] == \
            _config().effective_cluster_requests
        assert cluster["achieved_throughput"] > 0
        assert cluster["oracle_violations"] == 0

    def test_detection_window_scales_with_the_knob(self):
        fast = run_experiment(
            _config(node_fault_plan=PLAN,
                    failover_detect_cycles=200.0)).cluster
        slow = run_experiment(
            _config(node_fault_plan=PLAN,
                    failover_detect_cycles=50_000.0)).cluster
        assert fast["failover"]["promotions"] == 1
        # a huge detector timeout leaves the promotion pending at the
        # end of the run — the outage outlives the measurement
        assert slow["failover"]["promotions"] == 0
        assert slow["failover"]["pending_promotions"] == 1
        # more of the run is spent timing out against the corpse
        assert slow["resilience"]["timeouts"] >= \
            fast["resilience"]["timeouts"]

    def test_migration_to_a_demoted_importer_aborts(self):
        """A crash's promotion can demote a migration's importer while
        its ASK window is open.  The window aborts at its end (the slot
        stays with its owner) instead of killing the run."""
        config = RunConfig(
            program="unordered_map", frontend="stlt", num_keys=2_000,
            warmup_ops=300, measure_ops=300, exec_mode="batched",
            nodes=3, replicas=1, net_rtt_cycles=300.0,
            arrival_process="poisson", service_requests=4_000,
            offered_load=0.5, migrate_rate=0.01, node_fault_plan=PLAN,
            seed=1)
        cluster = run_experiment(config).cluster
        migration = cluster["migration"]
        assert migration["in_flight"] == 0
        assert migration["started"] > migration["committed"]
        assert cluster["failover_violations"] == 0
        assert cluster["oracle_violations"] == 0

    def test_fault_plan_changes_the_label(self):
        config = _config(node_fault_plan=PLAN)
        assert "nfault1" in config.label
        eager = _config(node_fault_plan=PLAN, repair_policy="eager")
        assert "+eager" in eager.label
