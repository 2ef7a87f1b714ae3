"""Aggregation laws of the statistics bundle (multi-core support).

The multi-core engine folds per-core measured windows with
:func:`repro.mem.stats.sum_stats` and relies on one algebraic property:
for every *counter* field, summing the per-core deltas equals taking the
delta of the per-core sums — a core's contribution to the aggregate
window is independent of when the other cores were snapshotted.  Gauge
fields (high-water marks) are exempt: a maximum is not differentiable,
so they carry the run-lifetime value and aggregate with ``max``.
"""

from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.stats import GAUGE_MAX_FIELDS, MemoryStats, sum_stats

COUNTER_FIELDS = [f.name for f in fields(MemoryStats)
                  if f.name not in GAUGE_MAX_FIELDS]
ALL_FIELDS = [f.name for f in fields(MemoryStats)]

counts = st.integers(min_value=0, max_value=1 << 20)


@st.composite
def stats_bundles(draw):
    return MemoryStats(**{name: draw(counts) for name in ALL_FIELDS})


@st.composite
def growing_pairs(draw):
    """(before, after) where every counter only ever grows and the gauge
    only ever rises — the shape real per-core statistics have."""
    before = draw(stats_bundles())
    after = before.snapshot()
    for name in ALL_FIELDS:
        setattr(after, name, getattr(after, name) + draw(counts))
    return before, after


class TestSumStats:
    def test_empty_is_zero_bundle(self):
        assert sum_stats([]) == MemoryStats()

    def test_single_bundle_is_identity(self):
        bundle = MemoryStats(reads=3, dram_max_queue_cycles=9)
        assert sum_stats([bundle]) == bundle

    @settings(max_examples=50, deadline=None)
    @given(st.lists(stats_bundles(), max_size=6))
    def test_counters_add_and_gauges_take_max(self, bundles):
        total = sum_stats(bundles)
        for name in COUNTER_FIELDS:
            assert getattr(total, name) == sum(
                getattr(b, name) for b in bundles)
        for name in GAUGE_MAX_FIELDS:
            expected = max((getattr(b, name) for b in bundles), default=0)
            assert getattr(total, name) == expected

    @settings(max_examples=50, deadline=None)
    @given(st.lists(stats_bundles(), min_size=1, max_size=6))
    def test_merge_is_sum_stats_in_place(self, bundles):
        total = MemoryStats()
        for bundle in bundles:
            total.merge(bundle)
        assert total == sum_stats(bundles)


class TestAggregationProperty:
    """sum of per-core deltas == delta of per-core sums (counters)."""

    @settings(max_examples=50, deadline=None)
    @given(st.lists(growing_pairs(), min_size=1, max_size=6))
    def test_sum_of_deltas_equals_delta_of_sums(self, pairs):
        deltas = [after.delta(before) for before, after in pairs]
        sum_of_deltas = sum_stats(deltas)
        delta_of_sums = sum_stats(a for _, a in pairs).delta(
            sum_stats(b for b, _ in pairs))
        for name in COUNTER_FIELDS:
            assert getattr(sum_of_deltas, name) == \
                getattr(delta_of_sums, name), name

    @settings(max_examples=50, deadline=None)
    @given(growing_pairs())
    def test_gauge_delta_reports_lifetime_high_water_mark(self, pair):
        before, after = pair
        delta = after.delta(before)
        for name in GAUGE_MAX_FIELDS:
            assert getattr(delta, name) == getattr(after, name)


class TestDramObservability:
    def test_busy_fraction(self):
        stats = MemoryStats(total_cycles=1000, dram_busy_cycles=250)
        assert stats.dram_busy_fraction == 0.25

    def test_busy_fraction_zero_when_idle(self):
        assert MemoryStats().dram_busy_fraction == 0.0
