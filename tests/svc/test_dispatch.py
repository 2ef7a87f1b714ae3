"""Dispatch policies through the queueing loop: balance, shortest-queue
greed, and the names ``simulate_service`` accepts.

Constant service times and hand-placed arrivals make each pick
visible in the per-core request counts.
"""

import pytest

from repro.errors import ConfigError
from repro.svc.service import DISPATCH_POLICIES, simulate_service


def requests_per_core(service, arrivals, policy):
    result = simulate_service(
        service, arrivals, policy, process="poisson", offered_load=0.7,
        arrival_rate=0.01, closed_loop_throughput=0.0143)
    assert result.dispatch == policy
    return [core["requests"] for core in result.per_core]


class TestPolicyNames:
    def test_the_two_policies(self):
        assert DISPATCH_POLICIES == ("round_robin", "jsq")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError, match="key_hash"):
            requests_per_core([[10]] * 4, [0.0], "key_hash")

    def test_zero_cores_rejected(self):
        with pytest.raises(ConfigError):
            requests_per_core([], [0.0], "round_robin")


class TestRoundRobin:
    def test_rotates_evenly(self):
        # request i lands on core i mod 3 whatever the queues hold: the
        # slow core 0 still gets every third request
        assert requests_per_core([[1000], [10], [10]], [0.0] * 7,
                                 "round_robin") == [3, 2, 2]


class TestJoinShortestQueue:
    def test_picks_minimum_depth(self):
        # t=0: r0 -> core 0 (empty queues tie to the lowest id), r1 ->
        # core 1.  t=20: core 1 has finished r1, core 0 still holds r0,
        # so r2 and, after r2 finishes at 30, r3 join core 1
        assert requests_per_core([[1000], [10]], [0.0, 0.0, 20.0, 40.0],
                                 "jsq") == [1, 3]

    def test_ties_break_to_lowest_core(self):
        # arrivals far apart: every queue is empty at each arrival, so
        # every request ties and goes to core 0
        assert requests_per_core([[10]] * 4, [0.0, 100.0, 200.0],
                                 "jsq") == [3, 0, 0, 0]
