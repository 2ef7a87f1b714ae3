"""Heterogeneous-fleet tests: capability seam, dispatch, oracle (PR 10).

Three layers:

* topology with ``node_classes`` — backer spread, write authority,
  full-class replicas, weighted slot provisioning, crash promotion;
* Hypothesis properties over arbitrary fleets: no write path, durable
  copy, or crash heir ever lands on an accelerator, and dispatch
  eligibility is exactly the capability descriptor;
* end-to-end ``run_cluster`` — homogeneous runs bit-identical to the
  pre-hetero golden path, per-seed mixed-fleet determinism, zero
  capability-oracle violations, capacity/oversized/SET fallbacks, and
  an accelerator crash promoting cleanly.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import service
from repro.cluster.failover import FailoverScheduler, parse_node_fault
from repro.cluster.network import ClusterNetwork
from repro.cluster.service import run_cluster
from repro.cluster.topology import ClusterTopology
from repro.errors import HeteroError
from repro.hetero.fleet import NODE_CLASS_ACCEL, NODE_CLASS_FULL
from repro.sim.config import RunConfig

from .test_cluster_golden import _SHARED as GOLDEN_SHARED

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
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def _mixed(**overrides):
    overrides.setdefault("node_types", "2full+1accel")
    return _config(**overrides)


# ----------------------------------------------------------------------
# topology
# ----------------------------------------------------------------------

class TestHeteroTopology:
    def test_class_list_length_must_match(self):
        with pytest.raises(HeteroError):
            ClusterTopology(3, num_slots=SLOTS,
                            node_classes=("full", "accel"))

    def test_fleet_needs_a_full_node(self):
        with pytest.raises(HeteroError):
            ClusterTopology(2, num_slots=SLOTS,
                            node_classes=("accel", "accel"))

    def test_replicas_need_enough_full_nodes(self):
        """Replicas are durable copies: only full nodes may hold them,
        so one full node cannot support one replica per slot."""
        with pytest.raises(HeteroError):
            ClusterTopology(3, replicas=1, num_slots=SLOTS,
                            node_classes=("full", "accel", "accel"))

    def test_homogeneous_stays_on_the_golden_layout(self):
        plain = ClusterTopology(3, num_slots=SLOTS)
        explicit = ClusterTopology(3, num_slots=SLOTS,
                                   node_classes=("full",) * 3)
        assert not explicit.accel_nodes
        assert plain.assignment() == explicit.assignment()

    def test_accel_owns_a_weighted_share(self):
        """Provisioning follows capability: the accelerator's primary
        slot share exceeds a full node's."""
        topo = ClusterTopology(3, num_slots=SLOTS,
                               node_classes=("full", "full", "accel"))
        counts = topo.counts()
        assert counts[2] > counts[0]
        assert sum(counts.values()) == SLOTS

    def test_full_primary_backs_itself(self):
        topo = ClusterTopology(3, num_slots=SLOTS,
                               node_classes=("full", "full", "accel"))
        for slot in topo.slots_of(0):
            assert topo.backer_of(slot) == 0

    def test_accel_slots_spread_over_all_full_backers(self):
        topo = ClusterTopology(3, num_slots=SLOTS,
                               node_classes=("full", "full", "accel"))
        backers = {topo.backer_of(s) for s in topo.slots_of(2)}
        assert backers == {0, 1}

    def test_read_set_includes_the_backer(self):
        topo = ClusterTopology(3, num_slots=SLOTS,
                               node_classes=("full", "full", "accel"))
        for slot in topo.slots_of(2):
            read = topo.read_set(slot)
            assert slot in topo.slots_of(read[0])
            assert topo.backer_of(slot) in read

    def test_accel_crash_promotes_to_a_full_node(self):
        topo = ClusterTopology(3, num_slots=SLOTS,
                               node_classes=("full", "full", "accel"))
        orphans = topo.crash_node(2)
        assert orphans
        live = set(topo.node_ids)
        for slot in orphans:
            assert topo.owner(slot) in live
            assert not topo.is_accel(topo.owner(slot))

    def test_last_full_node_cannot_crash(self):
        topo = ClusterTopology(3, num_slots=SLOTS,
                               node_classes=("full", "accel", "accel"))
        with pytest.raises(HeteroError):
            topo.crash_node(0)


# ----------------------------------------------------------------------
# properties: nothing durable ever lands on an accelerator
# ----------------------------------------------------------------------

#: arbitrary fleets of 2-8 nodes with >= 2 full members (so one crash
#: always leaves a legal fleet)
FLEETS = st.lists(
    st.sampled_from([NODE_CLASS_FULL, NODE_CLASS_ACCEL]),
    min_size=2, max_size=8,
).filter(lambda classes: classes.count(NODE_CLASS_FULL) >= 2)


class TestCapabilityProperties:
    @settings(max_examples=60, deadline=None)
    @given(classes=FLEETS)
    def test_write_path_is_always_full_class(self, classes):
        """For every slot of every fleet: the write authority, every
        replica, and every durable copy is a full node — dispatch can
        never be forced to send an ineligible op to an accelerator."""
        replicas = 1 if classes.count(NODE_CLASS_FULL) >= 2 else 0
        topo = ClusterTopology(len(classes), replicas=replicas,
                               num_slots=SLOTS,
                               node_classes=tuple(classes))
        for slot in range(SLOTS):
            assert not topo.is_accel(topo.write_authority(slot))
            for node in topo.replicas_of(slot):
                assert not topo.is_accel(node)
            for node in topo.durable_set(slot):
                assert not topo.is_accel(node)

    @settings(max_examples=60, deadline=None)
    @given(classes=FLEETS, pick=st.integers(min_value=0, max_value=31))
    def test_crash_heirs_are_always_full_class(self, classes, pick):
        """Promotion makes the heir the slot's primary for SETs too, so
        an accelerator crash (or a full crash in a mixed fleet) never
        promotes onto an accelerator."""
        topo = ClusterTopology(len(classes), num_slots=SLOTS,
                               node_classes=tuple(classes))
        full = topo.full_nodes()
        victim = topo.node_ids[pick % topo.num_nodes]
        if topo.is_accel(victim) or len(full) >= 2:
            orphans = topo.crash_node(victim)
            for slot in orphans:
                assert not topo.is_accel(topo.owner(slot))

    @settings(max_examples=40, deadline=None)
    @given(classes=FLEETS)
    def test_backer_is_deterministic_and_full(self, classes):
        a = ClusterTopology(len(classes), num_slots=SLOTS,
                            node_classes=tuple(classes))
        b = ClusterTopology(len(classes), num_slots=SLOTS,
                            node_classes=tuple(classes))
        for slot in range(SLOTS):
            assert a.backer_of(slot) == b.backer_of(slot)
            assert not a.is_accel(a.backer_of(slot))


# ----------------------------------------------------------------------
# end-to-end dispatch
# ----------------------------------------------------------------------

class TestHeteroRuns:
    def test_homogeneous_spec_is_bit_identical_to_golden(self):
        """An all-full ``--node-types`` run must be indistinguishable
        from the same run without the flag: same label, same payload."""
        golden = run_cluster(_config())
        spec = run_cluster(_config(node_types="3full"))
        assert _config().label == _config(node_types="3full").label
        assert json.dumps(golden.cluster, sort_keys=True) == \
            json.dumps(spec.cluster, sort_keys=True)

    def test_mixed_fleet_is_deterministic_per_seed(self):
        a = run_cluster(_mixed(seed=7)).cluster
        b = run_cluster(_mixed(seed=7)).cluster
        assert json.dumps(a, sort_keys=True) == \
            json.dumps(b, sort_keys=True)
        c = run_cluster(_mixed(seed=8)).cluster
        assert json.dumps(a, sort_keys=True) != \
            json.dumps(c, sort_keys=True)

    def test_accel_serves_hits_with_zero_violations(self):
        cluster = run_cluster(_mixed(measure_ops=200)).cluster
        hetero = cluster["hetero"]
        assert hetero["node_types"] == "2full+1accel"
        assert hetero["accel_hits"] > 0
        assert hetero["capability_violations"] == 0
        assert cluster["oracle_violations"] == 0

    def test_sets_always_fall_back_to_the_backer(self):
        """Every write whose slot an accelerator owns is rerouted; the
        accelerator itself serves none of them."""
        cluster = run_cluster(_mixed(measure_ops=200)).cluster
        hetero = cluster["hetero"]
        assert hetero["fallbacks"]["set"] > 0
        assert cluster["acked_writes"] > 0

    def test_capacity_misses_fall_back_and_install(self, monkeypatch):
        """A tiny key memory forces capacity misses: the backer serves,
        the accelerator installs, evictions appear."""
        monkeypatch.setattr(service, "DEFAULT_ACCEL_KEYS", 16)
        cluster = run_cluster(_mixed(measure_ops=200)).cluster
        hetero = cluster["hetero"]
        assert hetero["fallbacks"]["capacity"] > 0
        assert hetero["capability_violations"] == 0
        accel = hetero["per_accel"][0]
        assert accel["installs"] > 0
        assert accel["resident_keys"] <= 16

    def test_oversized_keys_never_reach_the_accel(self):
        cluster = run_cluster(
            _mixed(measure_ops=200, hetero_big_key_fraction=0.3)).cluster
        hetero = cluster["hetero"]
        assert hetero["fallbacks"]["oversized"] > 0
        assert hetero["capability_violations"] == 0

    def test_accel_crash_promotes_to_a_full_node(self):
        cluster = run_cluster(_mixed(
            measure_ops=200,
            node_fault_plan=("crash:node=2,at=0.4",),
            failover_detect_cycles=500.0,
        )).cluster
        assert cluster["failover"]["promotions"] > 0
        assert cluster["failover_violations"] == 0
        assert cluster["hetero"]["capability_violations"] == 0

    def test_cost_accounting_in_the_report(self):
        cluster = run_cluster(_mixed()).cluster
        hetero = cluster["hetero"]
        assert hetero["fleet_cost_units"] == pytest.approx(2.25)
        assert hetero["cost_normalized_throughput"] == pytest.approx(
            cluster["achieved_throughput"] / 2.25)

    def test_per_node_reports_carry_classes(self):
        cluster = run_cluster(_mixed()).cluster
        classes = [entry["node_class"] for entry in cluster["per_node"]]
        assert classes == ["full", "full", "accel"]

    def test_label_encodes_the_fleet(self):
        config = _mixed(hetero_big_key_fraction=0.25)
        label = config.label
        assert "2f1a" in label
        assert "bk0.25" in label

    def test_bad_spec_fails_at_config_time(self):
        with pytest.raises(HeteroError):
            _config(node_types="3accel")
        with pytest.raises(HeteroError):
            _config(node_types="2full+1turbo")


# ----------------------------------------------------------------------
# handovers from an accelerator owner keep acked writes
# ----------------------------------------------------------------------

#: six full + two accelerator nodes under crash + restart: the
#: restarted node steals its share from the accelerators, which own
#: the most slots
_HANDOVER = dict(
    num_keys=2_000, warmup_ops=500, measure_ops=500, num_cores=1,
    exec_mode="batched", nodes=8, node_types="6full+2accel",
    net_rtt_cycles=300.0, arrival_process="poisson",
    service_requests=8_000, offered_load=0.15, cluster_timeout=8.0)


class TestAccelHandover:
    """An accelerator owner is a cache and never holds a copy, so the
    data of a slot taken from it must ship from a live durable holder
    (the backer or a replica).  Before that rule these runs raised
    FailoverError with 14-22 acked writes stranded on live nodes."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_restart_stealing_accel_slots_keeps_acked_writes(self, seed):
        cluster = run_cluster(_config(
            **_HANDOVER, seed=seed,
            node_fault_plan=("crash:node=1,at=0.4",
                             "restart:node=1,at=0.8"))).cluster
        assert cluster["failover"]["promotions"] == 1
        assert cluster["failover"]["events"]["node_restart"] == 1
        assert cluster["failover_violations"] == 0
        assert cluster["acked_write_losses"] == 0

    def test_backer_moved_by_membership_keeps_acked_writes(self):
        """Crashing a full node re-spreads every accelerator slot's
        backer over the survivors; the re-sync must follow it."""
        cluster = run_cluster(_config(
            **_HANDOVER, seed=1,
            node_fault_plan=("crash:node=0,at=0.3",
                             "restart:node=0,at=0.7"))).cluster
        assert cluster["failover"]["promotions"] == 1
        assert cluster["failover_violations"] == 0


# ----------------------------------------------------------------------
# fault storms never take the last live full node
# ----------------------------------------------------------------------

class TestStormKeepsAFullNode:
    """A crash or partition of the last live full node would demote it
    and leave an all-accelerator ring; the scheduler skips it instead
    (crashed and isolated nodes count as gone)."""

    def test_last_live_full_node_faults_are_skipped(self):
        topo = ClusterTopology(3, num_slots=SLOTS, replicas=0,
                               node_classes=("full", "full", "accel"))
        plan = tuple(parse_node_fault(s) for s in (
            "crash:node=0,at=0.0", "partition:node=1,start=0.1,stop=0.9",
            "crash:node=1,at=0.2", "crash:node=2,at=0.3"))
        scheduler = FailoverScheduler(topo, ClusterNetwork(100.0), plan,
                                      seed=1, total_requests=100,
                                      detect_cycles=1e9)
        for index in range(40):
            scheduler.before_request(index, now=float(index))
        assert scheduler.crashed == {0, 2}
        assert scheduler.isolated == set()
        assert scheduler.skipped == 2
        # the detector fires: the surviving full node keeps the ring legal
        scheduler.before_request(41, now=2e9)
        assert topo.full_nodes() == (1,)

    def test_storm_on_a_mixed_fleet_runs_to_completion(self):
        """Seed 2 of this storm used to raise HeteroError ("crashing
        node 1 leaves no full node") when a promotion demoted the last
        full node."""
        cluster = run_cluster(RunConfig(**dict(
            GOLDEN_SHARED, seed=2, node_types="6full+2accel", replicas=0,
            offered_load=0.15, node_fault_plan=("storm:rate=0.003",),
            cluster_hedge=2.0))).cluster
        failover = cluster["failover"]
        assert failover["promotions"] > 0
        assert failover["skipped"] > 0
        assert cluster["failover_violations"] == 0


class TestResyncSkipsCrashedMembers:
    """A re-sync (owner change or ring-membership change) used to copy
    a key onto the slot's whole durable set, a crashed member still
    inside its detection window included.  When the live copies were
    lost later, that dead node still counted as a holder and the oracle
    raised FailoverError (2, 3 and 1 violations in these storms); the
    keys are losses, which is what the run must now report."""

    @pytest.mark.parametrize("seed,rate,losses", [
        (2, 0.003, 31), (3, 0.001, 10), (3, 0.003, 6)])
    def test_storm_reports_losses_not_violations(self, seed, rate, losses):
        cluster = run_cluster(RunConfig(**dict(
            GOLDEN_SHARED, seed=seed, node_types="6full+2accel",
            replicas=1, offered_load=0.15, cluster_hedge=2.0,
            node_fault_plan=(f"storm:rate={rate}",)))).cluster
        assert cluster["failover"]["promotions"] > 0
        assert cluster["failover_violations"] == 0
        assert cluster["acked_write_losses"] == losses
