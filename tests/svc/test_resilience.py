"""Graceful degradation: timeout/retry, hedging, SLO fallback.

Hand-checkable synthetic timelines verify each mechanism's exact
semantics, then an end-to-end run with a deliberately slowed core shows
the point of the whole layer: mitigation caps the tail (p99/p99.9) that
an unmitigated run pays in full — deterministically, per seed.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.sim.config import RunConfig
from repro.svc.service import (
    BACKOFF,
    DISPATCH_POLICIES,
    Mitigation,
    ServiceResult,
    mitigation_from_config,
    simulate_service,
)


def run_service(service, arrivals, policy="round_robin", mitigation=None):
    return simulate_service(
        service, arrivals, policy,
        process="poisson", offered_load=0.7, arrival_rate=0.01,
        closed_loop_throughput=0.0143, mitigation=mitigation)


class TestMitigationValidation:
    def test_disabled_by_default(self):
        assert not Mitigation().enabled

    @pytest.mark.parametrize("kwargs", [
        dict(timeout_cycles=0.0),
        dict(timeout_cycles=-5.0),
        dict(retries=-1),
        dict(hedge_cycles=0.0),
        dict(fallback=True),                 # needs slo_cycles
        dict(slo_cycles=-1.0),
    ])
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            Mitigation(**kwargs)

    def test_round_trip(self):
        m = Mitigation(timeout_cycles=600.0, retries=2,
                       hedge_cycles=400.0, fallback=True, slo_cycles=600.0)
        assert Mitigation.from_dict(m.to_dict()) == m

    @settings(max_examples=60, deadline=None)
    @given(
        cores=st.integers(1, 4),
        policy=st.sampled_from(DISPATCH_POLICIES),
        disabled=st.one_of(
            st.just(Mitigation()),
            st.builds(Mitigation, retries=st.integers(0, 4)),
            st.builds(Mitigation, slo_cycles=st.floats(0.0, 2_000.0))),
        seed=st.integers(0, 2 ** 16),
    )
    def test_none_mitigation_uses_legacy_loop(self, cores, policy,
                                              disabled, seed):
        """A disabled mitigation is the plain FIFO: every field equals
        the ``mitigation=None`` run exactly."""
        assert not disabled.enabled
        rng = random.Random(seed)
        service = [[rng.randint(1, 400) for _ in range(rng.randint(1, 30))]
                   for _ in range(cores)]
        # whole-cycle arrivals: completions coincide with arrivals too
        arrivals = sorted(float(rng.randrange(20_000)) for _ in range(200))
        a = run_service(service, arrivals, policy=policy)
        b = run_service(service, arrivals, policy=policy,
                        mitigation=disabled)
        assert a.to_dict() == b.to_dict()
        assert a.mitigation is None
        assert a.timeouts == a.hedges == a.fallbacks == 0


class TestTimeoutRetry:
    def test_timeout_redispatches_to_least_backlogged(self):
        # core 0 is a 1000-cycle/op crawler, core 1 a 100-cycle/op
        # server.  Round-robin: r0 -> core 0 (busy till 1000), r1 ->
        # core 1 (till 100), r2 -> core 0 behind r0: predicted wait
        # 1000 > timeout 300 -> the client waits its 300-cycle budget
        # out, then retries on core 1: 300 + 100 = 400 total.
        m = Mitigation(timeout_cycles=300.0, retries=1)
        result = run_service([[1000], [100]], [0.0, 0.0, 0.0],
                             mitigation=m)
        assert result.timeouts == 1
        assert result.retries == 1
        # latencies: r0 = 1000, r1 = 100, r2 = 300 burned + 100 service
        # (percentiles are log-bucketed, hence the tolerance)
        assert result.latency["p50"] == pytest.approx(400.0, rel=0.02)
        assert result.mean_latency == pytest.approx(500.0)
        assert result.per_core[1]["requests"] == 2

    def test_abandoned_attempt_frees_server_time(self):
        # the timed-out attempt must consume no crawler cycles: core 0
        # serves exactly its one surviving request
        m = Mitigation(timeout_cycles=300.0, retries=1)
        result = run_service([[1000], [100]], [0.0, 0.0, 0.0],
                             mitigation=m)
        assert result.per_core[0]["requests"] == 1
        assert result.per_core[0]["busy_fraction"] * result.makespan \
            == 1000.0

    def test_final_attempt_always_enqueues(self):
        # single core: nowhere better to go; the last attempt runs to
        # completion, so no request is ever lost
        m = Mitigation(timeout_cycles=10.0, retries=2)
        result = run_service([[1000]], [0.0, 0.0, 0.0], mitigation=m)
        assert result.requests == 3
        assert result.per_core[0]["requests"] == 3

    def test_backoff_grows_attempt_budgets(self):
        # budgets 100, 100 x BACKOFF (200): a request seeing a 150-cycle
        # backlog times out once, then its 200-cycle budget holds
        assert BACKOFF == 2.0
        m = Mitigation(timeout_cycles=100.0, retries=3)
        result = run_service([[150]], [0.0, 0.0], mitigation=m)
        assert result.timeouts == 1


class TestHedging:
    def test_queued_request_hedges_and_first_completion_wins(self):
        # r2 queues behind the crawler's r0 (start 1000 > hedge 200):
        # its hedge copy lands on core 1 at t=200 and completes at 300,
        # beating the primary's 2000
        m = Mitigation(hedge_cycles=200.0)
        result = run_service([[1000], [100]], [0.0, 0.0, 0.0],
                             mitigation=m)
        assert result.hedges == 1
        assert result.hedge_wins == 1
        # latencies: r0 = 1000, r1 = 100, r2 = 300 (hedge win); the
        # percentile is log-bucketed, the mean is exact
        assert result.latency["p50"] == pytest.approx(300.0, rel=0.02)
        assert result.mean_latency == pytest.approx(1400.0 / 3)

    def test_hedge_copies_both_consume_server_time(self):
        m = Mitigation(hedge_cycles=200.0)
        result = run_service([[1000], [100]], [0.0, 0.0, 0.0],
                             mitigation=m)
        # 3 arrivals, one duplicated: 4 services charged in total (the
        # losing primary still runs to completion — no cancellation)
        assert sum(c["requests"] for c in result.per_core) == 4
        assert result.per_core[0]["requests"] == 2

    def test_no_hedge_on_single_core(self):
        m = Mitigation(hedge_cycles=200.0)
        result = run_service([[1000]], [0.0, 0.0], mitigation=m)
        assert result.hedges == 0


class TestFallback:
    def test_predicted_slo_miss_reroutes_at_dispatch(self):
        m = Mitigation(fallback=True, slo_cycles=300.0)
        # round robin would alternate; after request 0 parks 1000
        # cycles on core 0, request 2 (round-robin back to core 0)
        # reroutes to core 1 up front, before losing any time
        result = run_service([[1000], [100]], [0.0, 0.0, 0.0],
                             mitigation=m)
        assert result.fallbacks >= 1
        assert result.per_core[0]["requests"] == 1


class TestEndToEnd:
    """The paper-style demonstration: a slow core under open-loop load."""

    CONFIG = dict(program="unordered_map", frontend="stlt", num_keys=400,
                  measure_ops=400, warmup_ops=150, num_cores=2,
                  arrival_process="poisson", offered_load=0.7,
                  dispatch_policy="round_robin",
                  fault_plan=("slowdown:core=1,factor=6",), seed=42)

    @pytest.fixture(scope="class")
    def pair(self):
        from repro.sim.engine import run_experiment

        plain = run_experiment(RunConfig(**self.CONFIG))
        mitigated = run_experiment(RunConfig(
            svc_timeout=4.0, svc_retries=2,
            svc_hedge=3.0, svc_fallback=True, **self.CONFIG))
        return plain, mitigated

    def test_mitigation_caps_the_tail(self, pair):
        plain, mitigated = pair
        p_lat = plain.service["latency"]
        m_lat = mitigated.service["latency"]
        assert m_lat["p99"] < p_lat["p99"]
        assert m_lat["p999"] < p_lat["p999"]
        assert mitigated.service["timeouts"] + \
            mitigated.service["hedges"] + \
            mitigated.service["fallbacks"] > 0

    def test_mitigated_run_is_deterministic(self):
        from repro.sim.engine import run_experiment

        config = RunConfig(
            svc_timeout=4.0, svc_retries=2,
            svc_hedge=3.0, svc_fallback=True, **self.CONFIG)
        a = run_experiment(config)
        b = run_experiment(config)
        assert a.to_dict() == b.to_dict()

    def test_mitigation_label_suffix(self):
        config = RunConfig(svc_timeout=4.0, **self.CONFIG)
        assert "+mit" in config.label

    def test_closed_loop_ignores_mitigation_knobs(self):
        # mitigation shapes the open-loop service model only; a closed
        # -loop run carries no service payload to mitigate
        config = RunConfig(program="unordered_map", frontend="stlt",
                           num_keys=200, measure_ops=60, warmup_ops=60,
                           svc_timeout=4.0)
        from repro.sim.engine import run_experiment

        result = run_experiment(config)
        assert result.service is None


class TestMitigationFromConfig:
    BASE = dict(program="unordered_map", num_keys=200, measure_ops=60,
                warmup_ops=60, num_cores=2, arrival_process="poisson",
                offered_load=0.5)

    def test_multiples_convert_to_cycles(self):
        config = RunConfig(svc_timeout=6.0, svc_retries=2,
                           svc_hedge=4.0, svc_fallback=True, **self.BASE)
        m = mitigation_from_config(config, mean_service=100.0)
        assert m == Mitigation(timeout_cycles=600.0, retries=2,
                               hedge_cycles=400.0, fallback=True,
                               slo_cycles=600.0)

    def test_fallback_slo_defaults_to_four_means(self):
        config = RunConfig(svc_fallback=True, **self.BASE)
        m = mitigation_from_config(config, mean_service=100.0)
        assert m.slo_cycles == 400.0

    def test_quiet_config_builds_nothing(self):
        config = RunConfig(**self.BASE)
        assert mitigation_from_config(config, mean_service=100.0) is None
