"""Integration tests for the cluster overlay (`repro.cluster.service`)."""

import dataclasses
import json

import pytest

from repro.cluster.service import (
    OVERLAY_FIELDS,
    ClusterResult,
    _node_config,
    simulate_cluster,
)
from repro.errors import ClusterError, ConfigError, ReproError
from repro.sim.config import RunConfig
from repro.sim.engine import Engine, run_experiment
from tests.exp.test_key_coverage import ALTERNATES


def _config(**overrides):
    defaults = dict(
        program="unordered_map",
        frontend="stlt",
        num_keys=400,
        warmup_ops=160,
        measure_ops=80,
        num_cores=2,
        seed=13,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


class TestBitIdentityAnchor:
    def test_quiet_single_node_stays_on_the_plain_path(self):
        """nodes=1 + zero RTT must be bit-identical to the golden
        single-node path — no overlay, no cluster payload."""
        config = _config()
        assert not config.cluster_enabled
        plain = Engine(dataclasses.replace(config)).run()
        routed = run_experiment(config)
        assert routed.cluster is None
        assert routed.to_dict() == plain.to_dict()

    def test_one_node_rtt_anchor_goes_through_the_overlay(self):
        config = _config(net_rtt_cycles=300.0)
        assert config.cluster_enabled
        result = run_experiment(config)
        assert result.cluster is not None
        cluster = result.cluster
        assert cluster["nodes"] == 1
        assert cluster["network"]["rtt_cycles"] == 300.0
        assert cluster["oracle_violations"] == 0
        # the node itself ran the plain engine: same closed-loop
        # throughput as a quiet run of the same seed
        plain = Engine(_config()).run()
        assert cluster["per_node"][0]["closed_loop_throughput"] == \
            pytest.approx(plain.throughput)
        # the run-level label says "cluster anchor"
        assert "net300" in result.label


class TestFleetRuns:
    def test_three_node_fleet_serves_everything_coherently(self):
        config = _config(nodes=3)
        result = run_experiment(config)
        cluster = result.cluster
        assert cluster["nodes"] == 3
        assert cluster["requests"] == config.effective_cluster_requests
        assert cluster["oracle_violations"] == 0
        assert cluster["achieved_throughput"] > 0
        assert sum(n["requests"] for n in cluster["per_node"]) == \
            cluster["requests"]
        assert 0.0 < cluster["fairness"] <= 1.0

    def test_busy_fraction_is_per_core_on_two_core_nodes(self):
        # the busiest node serves past half of its two cores' time, so
        # its busy cycles summed over both cores exceed the makespan
        config = _config(nodes=3, replicas=1, migrate_rate=0.01,
                         net_rtt_cycles=300.0, num_keys=4000,
                         measure_ops=400, warmup_ops=800, seed=1)
        busy = [n["busy_fraction"]
                for n in run_experiment(config).cluster["per_node"]]
        assert len(busy) == 3
        assert all(0.0 <= b <= 1.0 for b in busy), busy
        assert max(busy) > 0.5

    def test_fleet_is_deterministic_per_seed(self):
        config = _config(nodes=2, net_rtt_cycles=100.0,
                         migrate_rate=0.02, replicas=1)
        a = run_experiment(config)
        b = run_experiment(dataclasses.replace(config))
        assert a.to_dict() == b.to_dict()

    def test_seed_change_perturbs_the_overlay(self):
        a = run_experiment(_config(nodes=2, seed=13))
        b = run_experiment(_config(nodes=2, seed=14))
        assert a.cluster["histogram"] != b.cluster["histogram"]

    def test_route_cache_off_forces_bootstrap_misses(self):
        config = _config(nodes=4, route_cache=False)
        cluster = run_experiment(config).cluster
        assert cluster["route_hits"] == 0
        assert cluster["route_stale_hits"] == 0
        assert cluster["route_misses"] == cluster["requests"]
        # bootstrap nodes are arbitrary: most requests bounce
        assert cluster["moved_redirects"] > 0
        assert cluster["oracle_violations"] == 0

    def test_route_cache_on_learns_the_hot_set(self):
        # long enough that warmed caches dominate the cold misses
        config = _config(nodes=4, distribution="zipf",
                         measure_ops=250)
        cluster = run_experiment(config).cluster
        assert cluster["route_hits"] > cluster["route_misses"]

    def test_migration_exercises_ask_and_stale_paths(self):
        config = _config(nodes=4, migrate_rate=0.05, replicas=1,
                         measure_ops=150, seed=2)
        cluster = run_experiment(config).cluster
        assert cluster["migration"]["committed"] > 0
        assert cluster["ask_redirects"] > 0
        assert cluster["oracle_violations"] == 0

    def test_network_telemetry_flows_through(self):
        config = _config(nodes=2, net_rtt_cycles=150.0)
        cluster = run_experiment(config).cluster
        assert cluster["network"]["transfers"] > 0
        assert cluster["network"]["bytes_moved"] > 0


#: RunConfig fields that reach every node engine as given.  Some of them
#: (offered_load, the key space) are read by the overlay too; a field
#: only the overlay reads belongs in OVERLAY_FIELDS instead
ENGINE_FIELDS = frozenset({
    "program", "frontend", "distribution", "value_size", "num_keys",
    "measure_ops", "warmup_ops", "stlt_rows", "stlt_ways", "fast_hash",
    "prefetchers", "num_cores", "offered_load", "dispatch_policy",
    "churn_rate", "fault_plan", "svc_timeout", "svc_retries",
    "svc_hedge", "svc_fallback", "exec_mode", "seed", "machine",
})


class TestNodeConfig:
    def test_every_runconfig_field_is_classified(self):
        """A new RunConfig field must be declared an overlay field
        (reset for the node engines) or an engine field (carried
        through), so a cluster knob cannot leak into the node engines
        unnoticed."""
        base = RunConfig(num_keys=1_000, measure_ops=100)
        base_node = _node_config(base, 0)
        for field in dataclasses.fields(RunConfig):
            name = field.name
            value = ALTERNATES[name]
            node = _node_config(dataclasses.replace(base, **{name: value}),
                                0)
            if name in OVERLAY_FIELDS:
                assert node == base_node, (
                    f"overlay field {name!r} reached the node engine")
            elif name in ENGINE_FIELDS:
                assert getattr(node, name) == value, (
                    f"engine field {name!r} did not carry through")
            else:
                pytest.fail(f"RunConfig field {name!r} is neither in "
                            f"OVERLAY_FIELDS nor in ENGINE_FIELDS")

    def test_the_field_sets_are_disjoint(self):
        assert not ENGINE_FIELDS & set(OVERLAY_FIELDS)

    def test_other_nodes_derive_their_own_seed(self):
        config = _config(nodes=3)
        assert _node_config(config, 0).seed == config.seed
        assert len({_node_config(config, n).seed for n in range(3)}) == 3


class TestSimulateClusterValidation:
    def test_capacity_and_capture_counts_must_match_nodes(self):
        config = _config(nodes=2)
        with pytest.raises(ClusterError):
            simulate_cluster(config, [0.01], [[[100]]])

    def test_empty_capture_is_rejected(self):
        config = _config(nodes=1, net_rtt_cycles=1.0)
        with pytest.raises(ClusterError):
            simulate_cluster(config, [0.01], [[[]]])

    def test_zero_capacity_is_rejected(self):
        config = _config(nodes=1, net_rtt_cycles=1.0)
        with pytest.raises(ClusterError):
            simulate_cluster(config, [0.0], [[[100]]])


class TestClusterResultRoundTrip:
    def test_json_exact_round_trip(self):
        config = _config(nodes=2, migrate_rate=0.02, replicas=1)
        cluster = run_experiment(config).cluster
        hydrated = ClusterResult.from_dict(
            json.loads(json.dumps(cluster)))
        assert hydrated.to_dict() == cluster
        assert hydrated.p99 == cluster["latency"]["p99"]
        assert hydrated.route_lookups == (
            cluster["route_hits"] + cluster["route_stale_hits"]
            + cluster["route_misses"])
        assert 0.0 <= hydrated.route_hit_rate <= 1.0
        assert hydrated.latency_histogram().count == cluster["requests"]

    def test_unknown_fields_are_rejected_loudly(self):
        with pytest.raises(ReproError):
            ClusterResult.from_dict({"definitely_not_a_field": 1})


#: RunConfig fields deleted with client pipelining, replica-read
#: rotation and oversized keys, at the defaults stored records carry
REMOVED_KNOBS = {"client_batch": 1, "replica_reads": False,
                 "hetero_big_key_fraction": 0.0}


class TestRemovedKnobs:
    @pytest.mark.parametrize("name", sorted(REMOVED_KNOBS))
    def test_stored_config_with_the_knob_is_rejected(self, name):
        # a stored record that still carries the knob must re-simulate,
        # not load as if the field had never existed
        data = _config(nodes=2).to_dict()
        data[name] = REMOVED_KNOBS[name]
        with pytest.raises(ConfigError, match=repr(name)):
            RunConfig.from_dict(data)


class TestStoreIntegration:
    def test_cluster_payload_survives_the_result_store_record(self):
        from repro.exp.store import make_record
        from repro.sim.results import RunResult

        config = _config(nodes=2)
        result = run_experiment(config)
        record = json.loads(json.dumps(make_record(config, result)))
        rehydrated = RunResult.from_dict(record["result"])
        assert rehydrated.cluster == result.cluster
        assert record["config"]["nodes"] == 2
