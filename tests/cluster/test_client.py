"""Unit tests for cluster clients (`repro.cluster.client`)."""

import pytest

from repro.cluster.client import ClusterClient, RouteCache
from repro.cluster.topology import ClusterTopology
from repro.errors import ClusterError


def _client(**kwargs):
    defaults = dict(client_id=0, num_nodes=4, seed=7)
    defaults.update(kwargs)
    return ClusterClient(**defaults)


def _read_target(client, slot, topo):
    """Route a read the way the overlay does: with the slot's owner."""
    return client.target_for(slot, topo.owner(slot), topo, is_read=True)


class TestRouteCache:
    def test_learn_lookup_invalidate(self):
        cache = RouteCache()
        assert cache.lookup(5) is None
        cache.learn(5, 2)
        assert cache.lookup(5) == 2
        assert len(cache) == 1
        cache.invalidate(5)
        assert cache.lookup(5) is None
        cache.invalidate(5)  # idempotent

    def test_report_carries_counters(self):
        # the overlay sums these over its clients; the client updates
        # them (TestRouting), the cache itself never does
        cache = RouteCache()
        cache.learn(0, 0)
        cache.lookup(0)
        cache.lookup(1)
        assert (cache.hits, cache.stale_hits, cache.misses) == (0, 0, 0)
        assert len(cache) == 1


class TestRouting:
    def test_cold_lookup_is_a_miss_to_a_bootstrap_node(self):
        topo = ClusterTopology(4)
        client = _client()
        node, kind = _read_target(client, 0, topo)
        assert kind == "miss"
        assert 0 <= node < 4
        assert client.cache.misses == 1

    def test_served_route_hits_on_the_next_touch(self):
        topo = ClusterTopology(4)
        client = _client()
        slot = topo.slots_of(2)[0]
        client.on_served(slot, 2)
        node, kind = _read_target(client, slot, topo)
        assert (node, kind) == (2, "hit")
        assert client.cache.hits == 1

    def test_committed_move_makes_the_route_stale(self):
        topo = ClusterTopology(4)
        client = _client()
        slot = topo.slots_of(0)[0]
        client.on_served(slot, 0)
        topo.move_slot(slot, 3)
        node, kind = _read_target(client, slot, topo)
        # the stale row is *followed* (the contacted node will MOVED)
        assert (node, kind) == (0, "stale")
        client.on_moved(slot, 3)
        node, kind = _read_target(client, slot, topo)
        assert (node, kind) == (3, "hit")

    def test_cacheless_client_always_bootstraps(self):
        topo = ClusterTopology(4)
        client = _client(route_cache=False)
        assert client.cache is None
        for _ in range(8):
            node, kind = _read_target(client, 0, topo)
            assert kind == "miss"
        client.on_served(0, topo.owner(0))  # a no-op without a cache
        _, kind = _read_target(client, 0, topo)
        assert kind == "miss"

    def test_cached_replica_still_counts_as_a_hit(self):
        topo = ClusterTopology(3, replicas=1)
        client = _client(num_nodes=3)
        slot = topo.slots_of(0)[0]
        replica = topo.replicas_of(slot)[0]
        client.on_served(slot, replica)
        _, kind = _read_target(client, slot, topo)
        assert kind == "hit"

    def test_validation(self):
        with pytest.raises(ClusterError):
            _client(num_nodes=0)


class TestDeterminism:
    def test_same_seed_same_bootstrap_stream(self):
        a = _client(seed=11)
        b = _client(seed=11)
        assert [a.bootstrap_node() for _ in range(32)] == \
            [b.bootstrap_node() for _ in range(32)]

    def test_different_seed_different_stream(self):
        a = _client(seed=11)
        b = _client(seed=12)
        assert [a.bootstrap_node() for _ in range(32)] != \
            [b.bootstrap_node() for _ in range(32)]
