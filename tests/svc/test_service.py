"""The queueing simulation: latency accounting, saturation, round trips.

Synthetic service-time sequences make every expectation exact: with
deterministic arrivals and constant service times the whole timeline is
hand-checkable, and the classic queueing shapes (empty queues at low
load, superlinear p99 towards saturation, achieved < offered beyond
capacity) must emerge from the measured-service-time model.
"""

import json

import pytest

from repro.errors import ConfigError
from repro.sim.config import ARRIVAL_PROCESSES as CONFIG_ARRIVALS
from repro.sim.config import RunConfig
from repro.svc.arrival import ARRIVAL_PROCESSES as SVC_ARRIVALS
from repro.svc.arrival import poisson_arrivals
from repro.svc.service import ServiceResult, simulate_service


def run_service(service, arrivals, policy="round_robin",
                rate=0.01, load=0.7, capacity=0.0143):
    return simulate_service(
        service, arrivals, policy,
        process="poisson", offered_load=load, arrival_rate=rate,
        closed_loop_throughput=capacity)


class TestConstants:
    def test_config_open_processes_match_svc(self):
        """RunConfig's open-loop process names must be exactly what the
        svc factory can build (plus the "closed" sentinel)."""
        assert tuple(CONFIG_ARRIVALS) == ("closed",) + tuple(SVC_ARRIVALS)


class TestExactTimelines:
    def test_idle_server_latency_is_pure_service_time(self):
        # arrivals far apart: no queueing, latency == service cycles
        result = run_service([[100]], [0.0, 1000.0, 2000.0])
        assert result.mean_queue_delay == 0.0
        assert result.mean_latency == 100.0
        assert result.latency["p99"] == 100.0
        assert result.per_core[0]["max_queue_depth"] == 1

    def test_back_to_back_arrivals_queue_fifo(self):
        # three requests at t=0, one server, 100-cycle service:
        # latencies 100, 200, 300; queue delays 0, 100, 200
        result = run_service([[100]], [0.0, 0.0, 0.0])
        assert result.makespan == 300.0
        assert result.mean_latency == 200.0
        assert result.mean_queue_delay == 100.0
        assert result.per_core[0]["max_queue_depth"] == 3
        assert result.per_core[0]["busy_fraction"] == 1.0

    def test_service_sequence_cycles_in_order(self):
        # service times 10 then 30, reused modulo: 10,30,10 with gaps
        result = run_service([[10, 30]], [0.0, 100.0, 200.0])
        assert result.mean_latency == pytest.approx((10 + 30 + 10) / 3)

    def test_two_cores_round_robin_split(self):
        result = run_service([[100], [100]], [0.0, 0.0, 0.0, 0.0])
        # each core serves two back-to-back requests
        assert [c["requests"] for c in result.per_core] == [2, 2]
        assert result.makespan == 200.0
        assert result.mean_latency == 150.0

    def test_jsq_balances_where_round_robin_cannot(self):
        # core 0 is slow (1000 cycles), core 1 fast (10).  The third
        # request lands while core 0 is still busy and core 1 is idle:
        # jsq sees the empty queue (latency 10), oblivious round-robin
        # walks into the busy core (latency 1980)
        arrivals = [0.0, 0.0, 20.0]
        rr = run_service([[1000], [10]], arrivals)
        jsq = run_service([[1000], [10]], arrivals, policy="jsq")
        assert jsq.mean_latency < rr.mean_latency
        assert jsq.latency["p50"] < rr.latency["p50"]


class TestQueueingShapes:
    def _poisson(self, load, seed=3, n=2000):
        service = 100  # cycles -> capacity 0.01 ops/cycle
        rate = load * 0.01
        arrivals = poisson_arrivals(rate, n, seed=seed)
        return run_service([[service]], arrivals, rate=rate, load=load,
                           capacity=0.01)

    def test_p99_rises_superlinearly_towards_saturation(self):
        low = self._poisson(0.3).latency["p99"]
        mid = self._poisson(0.7).latency["p99"]
        high = self._poisson(0.95).latency["p99"]
        assert high > mid > low
        assert (high - mid) > (mid - low)

    def test_overload_caps_achieved_throughput(self):
        over = self._poisson(2.0)
        # the single 100-cycle server can do at most 0.01 ops/cycle
        assert over.arrival_rate == pytest.approx(0.02)
        assert over.achieved_throughput <= 0.01 * 1.001
        assert over.achieved_throughput < over.arrival_rate
        assert over.per_core[0]["busy_fraction"] > 0.999

    def test_stable_load_achieves_offered(self):
        ok = self._poisson(0.5)
        assert ok.achieved_throughput == pytest.approx(ok.arrival_rate,
                                                       rel=0.1)


class TestValidation:
    def test_empty_service_sequence_rejected(self):
        with pytest.raises(ConfigError):
            run_service([[]], [0.0])

    def test_unsorted_arrivals_rejected(self):
        with pytest.raises(ConfigError):
            run_service([[10]], [5.0, 1.0])

    def test_zero_requests_rejected(self):
        with pytest.raises(ConfigError):
            run_service([[10]], [])


class TestServiceResultSerialisation:
    def test_exact_json_round_trip(self):
        result = run_service([[100, 150]], [0.0, 10.0, 400.0])
        clone = ServiceResult.from_dict(
            json.loads(json.dumps(result.to_dict())))
        assert clone.to_dict() == result.to_dict()
        assert clone.p99 == result.p99
        assert clone.num_cores == 1
        hist = clone.latency_histogram()
        assert hist.count == 3

    def test_unknown_field_rejected(self):
        result = run_service([[100]], [0.0])
        data = result.to_dict()
        data["bogus"] = 1
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            ServiceResult.from_dict(data)


class TestRunConfigServiceFields:
    def test_closed_is_the_default(self):
        config = RunConfig()
        assert config.arrival_process == "closed"
        assert config.effective_service_requests == config.measure_ops

    def test_effective_requests_scale_with_cores(self):
        config = RunConfig(num_cores=3, measure_ops=100,
                           arrival_process="poisson")
        assert config.effective_service_requests == 300
        explicit = RunConfig(service_requests=42)
        assert explicit.effective_service_requests == 42

    def test_open_loop_label_carries_traffic(self):
        config = RunConfig(frontend="stlt", num_cores=2,
                           arrival_process="mmpp", offered_load=0.85,
                           dispatch_policy="jsq")
        assert config.label.endswith("x2c@mmpp-0.85-jsq")
        plain = RunConfig(arrival_process="poisson", offered_load=0.5)
        assert plain.label.endswith("@poisson-0.5")

    def test_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(arrival_process="diurnal")
        with pytest.raises(ConfigError):
            RunConfig(dispatch_policy="random")
        with pytest.raises(ConfigError):
            RunConfig(offered_load=0.0)
        with pytest.raises(ConfigError):
            RunConfig(offered_load=4.5)
        with pytest.raises(ConfigError):
            RunConfig(service_requests=0)

    def test_removed_options_are_rejected(self):
        # retries back off by a fixed factor and requests carry no key
        # stream, so neither the knob nor key-hash dispatch is left
        stored = RunConfig().to_dict()
        stored["svc_backoff"] = 1.5
        with pytest.raises(ConfigError, match="svc_backoff"):
            RunConfig.from_dict(stored)
        with pytest.raises(ConfigError, match="key_hash"):
            RunConfig(dispatch_policy="key_hash")
