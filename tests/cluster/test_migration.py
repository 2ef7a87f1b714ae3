"""Unit tests for live slot migration (`repro.cluster.migration`)."""

import itertools
import math

from repro.cluster.migration import ASK_WINDOW_SCALE, MigrationScheduler
from repro.cluster.topology import ClusterTopology


def _scheduler(nodes=4, rate=0.2, seed=3, **kwargs):
    topo = ClusterTopology(nodes)
    return topo, MigrationScheduler(topo, rate, seed, **kwargs)


def _drive(sched, requests):
    for index in range(requests):
        sched.before_request(index)


class TestScheduling:
    def test_zero_rate_never_fires(self):
        topo, sched = _scheduler(rate=0.0)
        assert not sched.active
        before = topo.assignment()
        _drive(sched, 500)
        sched.drain(500)
        assert topo.assignment() == before
        assert sched.report() == {"started": 0, "committed": 0,
                                  "skipped": 0, "ask_redirects": 0,
                                  "in_flight": 0}

    def test_migrations_fire_and_commit_under_traffic(self):
        topo, sched = _scheduler(rate=0.1)
        before = topo.assignment()
        _drive(sched, 2_000)
        sched.drain(2_000)
        assert sched.started > 0
        assert sched.committed == sched.started
        assert len(sched._in_flight) == 0
        # committed moves actually changed ownership
        assert topo.assignment() != before

    def test_single_node_fleet_skips_every_event(self):
        topo, sched = _scheduler(nodes=1, rate=0.5)
        _drive(sched, 500)
        assert sched.started == 0
        assert sched.skipped > 0
        assert topo.assignment() == tuple([0] * topo.num_slots)

    def test_window_commits_after_its_burst(self):
        topo, sched = _scheduler(rate=1.0)  # fires on request 0
        sched.before_request(0)
        assert sched.started == 1
        (slot, (dst, end)), = list(sched._in_flight.items())
        assert end <= ASK_WINDOW_SCALE * 8  # bursts are 1..8
        old_owner = topo.owner(slot)
        assert dst != old_owner
        # drive past the window: the commit lands
        for index in range(1, end + 1):
            sched.before_request(index)
            if slot not in sched._in_flight:
                break
        assert topo.owner(slot) == dst
        assert sched.committed >= 1

    def test_window_aborts_when_its_importer_is_demoted(self):
        """A crash's promotion removes the importer from the ring while
        its window is open: at the window's end the slot stays with its
        owner instead of moving to a node that left the cluster."""
        slots = itertools.count()  # every event draws a fresh slot
        topo, sched = _scheduler(rate=1.0,
                                 slot_source=lambda rng: next(slots))
        sched.before_request(0)
        (slot, (dst, end)), = list(sched._in_flight.items())
        owner, epoch = topo.owner(slot), topo.epoch(slot)
        topo.crash_node(dst)
        for index in range(1, end + 1):
            sched.before_request(index)
        assert slot not in sched._in_flight
        assert topo.owner(slot) == owner != dst
        assert topo.epoch(slot) == epoch
        # every later window targets a live node: only the first aborts
        sched.drain(end + 1)
        assert sched.started - sched.committed == 1

    def test_drain_aborts_a_window_to_a_demoted_importer(self):
        topo, sched = _scheduler(rate=1.0)
        sched.before_request(0)
        (slot, (dst, _)), = list(sched._in_flight.items())
        owner = topo.owner(slot)
        topo.crash_node(dst)
        sched.drain(1)
        assert topo.owner(slot) == owner
        assert (sched.started, sched.committed) == (1, 0)
        assert sched.report()["in_flight"] == 0


class TestAskRedirects:
    def test_ask_targets_the_importer_only_from_the_old_owner(self):
        topo, sched = _scheduler(rate=1.0)
        sched.before_request(0)
        (slot, (dst, _)), = list(sched._in_flight.items())
        owner = topo.owner(slot)
        # from the (still authoritative) old owner: forward to importer
        assert sched.ask_target(slot, owner) == dst
        assert sched.ask_redirects == 1
        # from any other node: no ASK (that path answers MOVED instead)
        other = next(n for n in topo.node_ids if n not in (owner, dst))
        assert sched.ask_target(slot, other) is None
        # a slot not migrating never ASKs
        quiet_slot = next(s for s in range(topo.num_slots)
                          if s not in sched._in_flight)
        assert sched.ask_target(quiet_slot, topo.owner(quiet_slot)) is None

    def test_importing_node_is_exposed_for_the_oracle(self):
        topo, sched = _scheduler(rate=1.0)
        sched.before_request(0)
        (slot, (dst, _)), = list(sched._in_flight.items())
        assert sched.importing_node(slot) == dst
        assert sched.importing_node((slot + 1) % topo.num_slots) is None


class TestDeterminism:
    def test_same_seed_same_migration_history(self):
        topo_a, a = _scheduler(seed=5)
        topo_b, b = _scheduler(seed=5)
        _drive(a, 1_000)
        _drive(b, 1_000)
        a.drain(1_000)
        b.drain(1_000)
        assert a.report() == b.report()
        assert topo_a.assignment() == topo_b.assignment()

    def test_slot_source_controls_payloads_not_positions(self):
        """Changing *which* slots migrate must not shift *when* events
        fire — the position/payload stream split."""
        _, a = _scheduler(seed=5)
        _, b = _scheduler(seed=5,
                          slot_source=lambda rng: rng.randrange(64))
        _drive(a, 1_000)
        _drive(b, 1_000)
        assert a.started + a.skipped == b.started + b.skipped


class TestDueTest:
    def test_an_armed_scheduler_is_due_on_every_request(self):
        _, sched = _scheduler(rate=0.2)
        assert sched.next_due == 0

    def test_an_unarmed_scheduler_is_never_due(self):
        _, sched = _scheduler(rate=0.0)
        assert sched.next_due == math.inf
