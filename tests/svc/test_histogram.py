"""Property tests for the log-bucketed latency histogram.

The merge algebra (associativity, commutativity, identity) and the
bounded-relative-error quantile contract are exactly what lets per-core
recordings fold into one service-wide distribution in any order —
hypothesis drives integer latency samples (cycles are integers, and
integer sums stay float-exact) through every law.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, ReproError
from repro.svc.histogram import DEFAULT_PRECISION, LatencyHistogram

#: integer cycle latencies spanning seven orders of magnitude
latencies = st.lists(st.integers(min_value=0, max_value=10**7),
                     min_size=0, max_size=200)
nonempty_latencies = st.lists(st.integers(min_value=0, max_value=10**7),
                              min_size=1, max_size=200)


def hist_of(values, precision=DEFAULT_PRECISION):
    h = LatencyHistogram(precision=precision)
    h.record_many(values)
    return h


class TestBucketing:
    def test_bucket_zero_holds_sub_unit_values(self):
        h = LatencyHistogram()
        assert h.bucket_index(0) == 0
        assert h.bucket_index(0.5) == 0
        assert h.bucket_index(1.0) == 1

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            LatencyHistogram().record(-1.0)

    @given(st.floats(min_value=1.0, max_value=1e12,
                     allow_nan=False, allow_infinity=False))
    def test_value_lies_within_its_bucket_bounds(self, value):
        h = LatencyHistogram()
        lower, upper = h.bucket_bounds(h.bucket_index(value))
        assert lower <= value < upper or math.isclose(value, upper)

    @given(st.floats(min_value=1.0, max_value=1e12,
                     allow_nan=False, allow_infinity=False))
    def test_bucket_width_bounds_relative_error(self, value):
        h = LatencyHistogram()
        lower, upper = h.bucket_bounds(h.bucket_index(value))
        assert (upper - lower) <= lower / (2 ** h.precision) * 1.0000001

    def test_bad_precision_rejected(self):
        with pytest.raises(ConfigError):
            LatencyHistogram(precision=0)
        with pytest.raises(ConfigError):
            LatencyHistogram(precision=21)


#: the values whose bucket is easiest to get wrong: zero, the [0, 1)
#: floor, 1.0, every power of two and the float one ulp below it, and
#: large values
edge_values = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    st.just(1.0),
    st.integers(min_value=0, max_value=1023).map(lambda k: 2.0 ** k),
    st.integers(min_value=0, max_value=1023).map(
        lambda k: math.nextafter(2.0 ** k, 0.0)),
    st.floats(min_value=1.0, max_value=1e308),
)


class TestRecordBucketing:
    """``record`` computes its bucket inline; it must be
    ``bucket_index``'s at every precision."""

    @settings(max_examples=300)
    @given(value=edge_values, precision=st.integers(1, 20),
           count=st.integers(1, 3))
    def test_record_lands_where_bucket_index_says(self, value, precision,
                                                  count):
        h = LatencyHistogram(precision=precision)
        h.record(value, count)
        assert h.counts == {h.bucket_index(value): count}

    @pytest.mark.parametrize("precision", [1, DEFAULT_PRECISION, 20])
    def test_every_power_of_two_and_its_predecessor(self, precision):
        h = LatencyHistogram(precision=precision)
        for k in range(1024):
            for value in (2.0 ** k, math.nextafter(2.0 ** k, 0.0)):
                h.counts.clear()
                h.record(value)
                assert h.counts == {h.bucket_index(value): 1}, value


class TestCounterSemantics:
    @given(nonempty_latencies)
    def test_count_min_max_total_are_exact(self, values):
        h = hist_of(values)
        assert h.count == len(values)
        assert h.min_value == min(values)
        assert h.max_value == max(values)
        assert h.total == sum(values)  # ints sum float-exactly here
        assert h.mean == pytest.approx(sum(values) / len(values))

    @given(st.integers(min_value=0, max_value=10**6),
           st.integers(min_value=1, max_value=1000))
    def test_bulk_record_equals_repeated_record(self, value, count):
        bulk = LatencyHistogram()
        bulk.record(value, count=count)
        loop = LatencyHistogram()
        for _ in range(count):
            loop.record(value)
        assert bulk == loop

    def test_zero_count_record_is_a_noop(self):
        h = LatencyHistogram()
        h.record(42.0, count=0)
        assert h.count == 0
        assert h.counts == {}
        with pytest.raises(ConfigError):
            h.record(42.0, count=-1)


class TestMergeAlgebra:
    @given(latencies, latencies)
    def test_commutative(self, a, b):
        ab = hist_of(a).merge(hist_of(b))
        ba = hist_of(b).merge(hist_of(a))
        assert ab == ba

    @given(latencies, latencies, latencies)
    def test_associative(self, a, b, c):
        left = hist_of(a).merge(hist_of(b)).merge(hist_of(c))
        right = hist_of(a).merge(hist_of(b).merge(hist_of(c)))
        assert left == right

    @given(latencies)
    def test_empty_is_identity(self, a):
        assert hist_of(a).merge(LatencyHistogram()) == hist_of(a)
        assert LatencyHistogram().merge(hist_of(a)) == hist_of(a)

    @given(latencies, latencies)
    def test_merge_equals_recording_concatenation(self, a, b):
        assert hist_of(a).merge(hist_of(b)) == hist_of(a + b)

    def test_mismatched_precision_rejected(self):
        with pytest.raises(ConfigError):
            LatencyHistogram(precision=7).merge(
                LatencyHistogram(precision=8))


class TestQuantiles:
    @settings(max_examples=200)
    @given(nonempty_latencies,
           st.floats(min_value=0.0, max_value=1.0))
    def test_quantile_within_one_bucket_relative_error(self, values, q):
        """The reported quantile is an upper bound no farther than one
        bucket width from the exact rank-ceil(q*n) order statistic."""
        h = hist_of(values)
        exact = sorted(values)[max(1, math.ceil(q * len(values))) - 1]
        got = h.quantile(q)
        assert got >= exact * (1.0 - 1e-12)
        # one bucket of slack: relative for values >= 1, absolute (the
        # [0, 1) floor bucket) otherwise
        slack = max(1.0, exact / (2 ** h.precision))
        assert got <= exact + slack * 1.0000001

    @given(nonempty_latencies)
    def test_quantile_is_monotone_in_q(self, values):
        h = hist_of(values)
        qs = [0.0, 0.25, 0.5, 0.9, 0.99, 1.0]
        results = [h.quantile(q) for q in qs]
        assert results == sorted(results)

    @given(nonempty_latencies)
    def test_extremes_clamped_to_observed_range(self, values):
        h = hist_of(values)
        assert h.quantile(1.0) == max(values)
        assert h.quantile(0.0) <= h.quantile(1.0)

    def test_empty_histogram_quantile_fails_loudly(self):
        with pytest.raises(ReproError):
            LatencyHistogram().quantile(0.5)

    def test_out_of_range_q_rejected(self):
        h = hist_of([1, 2, 3])
        with pytest.raises(ConfigError):
            h.quantile(1.5)

    def test_percentiles_shape(self):
        p = hist_of(range(1, 1001)).percentiles()
        assert set(p) == {"p50", "p95", "p99", "p999"}
        assert p["p50"] <= p["p95"] <= p["p99"] <= p["p999"]


class TestSerialisation:
    @given(latencies)
    def test_exact_json_round_trip(self, values):
        h = hist_of(values)
        clone = LatencyHistogram.from_dict(
            json.loads(json.dumps(h.to_dict())))
        assert clone == h
        assert clone.to_dict() == h.to_dict()
        if values:
            assert clone.quantile(0.99) == h.quantile(0.99)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            LatencyHistogram.from_dict({"precision": 7, "bogus": 1})
