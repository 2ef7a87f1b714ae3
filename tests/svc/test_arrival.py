"""Arrival processes: determinism, rate fidelity, burstiness."""

import math
import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.svc.arrival import (
    ARRIVAL_PROCESSES,
    MMPP_BURSTINESS,
    MMPP_DWELL_REQUESTS,
    make_arrivals,
    mmpp_arrivals,
    poisson_arrivals,
)


def gaps(times):
    return [b - a for a, b in zip([0.0] + times[:-1], times)]


class TestDeterminism:
    @pytest.mark.parametrize("process", ARRIVAL_PROCESSES)
    def test_same_seed_same_timestamps(self, process):
        a = make_arrivals(process, rate=0.01, count=500, seed=7)
        b = make_arrivals(process, rate=0.01, count=500, seed=7)
        assert a == b  # bit-identical, not just close

    @pytest.mark.parametrize("process", ARRIVAL_PROCESSES)
    def test_different_seed_different_timestamps(self, process):
        a = make_arrivals(process, rate=0.01, count=500, seed=7)
        b = make_arrivals(process, rate=0.01, count=500, seed=8)
        assert a != b


class TestShape:
    @pytest.mark.parametrize("process", ARRIVAL_PROCESSES)
    def test_monotone_positive_and_counted(self, process):
        times = make_arrivals(process, rate=0.05, count=300, seed=3)
        assert len(times) == 300
        assert all(t > 0 for t in times)
        assert times == sorted(times)

    def test_poisson_mean_rate_matches(self):
        rate = 0.01
        times = poisson_arrivals(rate, 4000, seed=11)
        mean_gap = times[-1] / len(times)
        assert mean_gap == pytest.approx(1.0 / rate, rel=0.1)

    def test_mmpp_long_run_rate_matches(self):
        rate = 0.01
        times = mmpp_arrivals(rate, 8000, seed=11)
        mean_gap = times[-1] / len(times)
        assert mean_gap == pytest.approx(1.0 / rate, rel=0.15)

    def test_mmpp_is_burstier_than_poisson(self):
        """The modulated process has higher gap dispersion (CV > the
        Poisson CV of ~1) at the same long-run rate."""
        rate = 0.01
        poisson_cv = statistics.pstdev(
            gaps(poisson_arrivals(rate, 6000, seed=5)))
        mmpp_cv = statistics.pstdev(
            gaps(mmpp_arrivals(rate, 6000, seed=5)))
        assert mmpp_cv > poisson_cv

    def test_empty_request_count_allowed(self):
        assert make_arrivals("poisson", rate=1.0, count=0, seed=1) == []


class TestValidation:
    def test_unknown_process_rejected(self):
        with pytest.raises(ConfigError):
            make_arrivals("diurnal", rate=1.0, count=10)

    def test_bad_rate_rejected(self):
        with pytest.raises(ConfigError):
            poisson_arrivals(0.0, 10)
        with pytest.raises(ConfigError):
            mmpp_arrivals(-1.0, 10)

    def test_bad_count_rejected(self):
        with pytest.raises(ConfigError):
            poisson_arrivals(1.0, -1)

    def test_bad_mmpp_shape_rejected(self):
        with pytest.raises(ConfigError):
            mmpp_arrivals(1.0, 10, burstiness=0.5)
        with pytest.raises(ConfigError):
            mmpp_arrivals(1.0, 10, dwell_requests=0.0)

    def test_finite_messages(self):
        with pytest.raises(ConfigError, match="rate must be positive"):
            poisson_arrivals(0.0, 10)
        with pytest.raises(ConfigError, match="burstiness must be >= 1"):
            mmpp_arrivals(1.0, 10, burstiness=0.5)
        with pytest.raises(ConfigError, match="dwell must be positive"):
            mmpp_arrivals(1.0, 10, dwell_requests=-2.0)

    @pytest.mark.parametrize("arrivals", [
        lambda: poisson_arrivals(math.nan, 3),
        lambda: mmpp_arrivals(math.nan, 3),
        lambda: mmpp_arrivals(1.0, 3, burstiness=math.nan),
        lambda: poisson_arrivals(math.inf, 3),
        lambda: mmpp_arrivals(math.inf, 3),
        lambda: mmpp_arrivals(1.0, 3, dwell_requests=math.inf),
        lambda: poisson_arrivals(-math.inf, 3),
        lambda: mmpp_arrivals(1.0, 3, burstiness=math.inf),
        lambda: mmpp_arrivals(1.0, 3, dwell_requests=math.nan),
    ], ids=["poisson-nan-rate", "mmpp-nan-rate", "mmpp-nan-burstiness",
            "poisson-inf-rate", "mmpp-inf-rate", "mmpp-inf-dwell",
            "poisson-minus-inf-rate", "mmpp-inf-burstiness",
            "mmpp-nan-dwell"])
    def test_non_finite_inputs_rejected(self, arrivals):
        with pytest.raises(ConfigError, match="must be finite"):
            arrivals()


    @pytest.mark.parametrize("rate, dwell", [
        (1e300, 1e-10),  # the switch rate overflows: zero-length dwells
        (5e-324, MMPP_DWELL_REQUESTS),  # the dwell overflows
    ])
    def test_mmpp_rates_outside_the_float_range_rejected(self, rate, dwell):
        with pytest.raises(ConfigError, match="outside the float range"):
            mmpp_arrivals(rate, 3, dwell_requests=dwell)


def reference_poisson(rate, count, seed):
    """One ``expovariate`` call per gap."""
    rng = random.Random(seed)
    times, now = [], 0.0
    for _ in range(count):
        now += rng.expovariate(rate)
        times.append(now)
    return times


def reference_mmpp(rate, count, seed, burstiness, dwell_requests):
    """One ``expovariate`` call per gap and per state switch."""
    rng = random.Random(seed)
    hot_rate = rate * 2.0 * burstiness / (burstiness + 1.0)
    cold_rate = rate * 2.0 / (burstiness + 1.0)
    mean_dwell = dwell_requests / rate
    times, now = [], 0.0
    hot = bool(rng.getrandbits(1))
    next_switch = rng.expovariate(1.0 / mean_dwell)
    for _ in range(count):
        while now >= next_switch:
            hot = not hot
            next_switch += rng.expovariate(1.0 / mean_dwell)
        now += rng.expovariate(hot_rate if hot else cold_rate)
        times.append(now)
    return times


def bits(times):
    return [t.hex() for t in times]


class TestInlineExponentialGaps:
    """The inlined ``-log(1 - random()) / rate`` gaps are
    ``expovariate``'s, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(rate=st.floats(1e-6, 50.0), count=st.integers(0, 800),
           seed=st.integers(0, 2**32))
    def test_poisson_matches_expovariate(self, rate, count, seed):
        assert bits(poisson_arrivals(rate, count, seed=seed)) == \
            bits(reference_poisson(rate, count, seed))

    @settings(max_examples=60, deadline=None)
    @given(rate=st.floats(1e-6, 50.0), count=st.integers(0, 800),
           seed=st.integers(0, 2**32),
           burstiness=st.one_of(st.just(MMPP_BURSTINESS),
                                st.floats(1.0, 32.0)),
           dwell=st.one_of(st.just(MMPP_DWELL_REQUESTS),
                           st.floats(0.05, 500.0)))
    def test_mmpp_matches_expovariate(self, rate, count, seed, burstiness,
                                      dwell):
        assert bits(mmpp_arrivals(rate, count, seed=seed,
                                  burstiness=burstiness,
                                  dwell_requests=dwell)) == \
            bits(reference_mmpp(rate, count, seed, burstiness, dwell))
