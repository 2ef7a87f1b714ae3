"""The shared gap schedule matches the bisect-and-scan it replaced.

:class:`~repro.cluster.network.GapSchedule` serves both the network
links and the accelerator lookup pipelines.  It appends in O(1) when a
claim starts at or after the last busy end and otherwise bisects and
scans.  Over arbitrary claim sequences — out of order, zero-length,
touching, exactly filling a gap — it must produce the same start times
and the same interval list as the reference below, which is the
scheduler both call sites carried before they were merged.

``release(horizon)`` trims the intervals that ended by a horizon no
later claim starts before; against the same reference, which never
releases, it must change no start time and no ``tail``, and leave a
suffix of the reference's intervals.
"""

import bisect

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.network import GapSchedule


def reference_claim(intervals, at, duration):
    """The pre-merge bisect-and-scan, verbatim in behaviour."""
    i = bisect.bisect_right(intervals, (at, float("inf")))
    if i and intervals[i - 1][1] > at:
        i -= 1
    start = at
    while i < len(intervals):
        busy_start, busy_end = intervals[i]
        if start + duration <= busy_start:
            break
        if busy_end > start:
            start = busy_end
        i += 1
    intervals.insert(i, (start, start + duration))
    return start


def assert_same_as_reference(claims):
    schedule = GapSchedule()
    intervals = []
    for at, duration in claims:
        assert schedule.claim(at, duration) == \
            reference_claim(intervals, at, duration)
        assert schedule.intervals == intervals
        assert schedule.tail == intervals[-1][1]


#: a coarse half-cycle grid makes touching intervals and exactly
#: fitting gaps common; durations include zero
CLAIM = st.tuples(st.integers(min_value=0, max_value=400).map(lambda x: x / 2),
                  st.integers(min_value=0, max_value=40).map(lambda x: x / 2))


class TestMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(claims=st.lists(CLAIM, max_size=60))
    def test_arbitrary_claim_orders(self, claims):
        assert_same_as_reference(claims)

    @settings(max_examples=100, deadline=None)
    @given(claims=st.lists(CLAIM, max_size=60))
    def test_mostly_in_order_claims(self, claims):
        """The overlay's usual shape: claims sorted by time, so most
        take the append path and the rest land in earlier gaps."""
        ordered = sorted(claims)
        ordered[len(ordered) // 2:] = reversed(ordered[len(ordered) // 2:])
        assert_same_as_reference(ordered)

    @settings(max_examples=100, deadline=None)
    @given(claims=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=1e6),
                  st.floats(min_value=0.0, max_value=1e3)), max_size=40))
    def test_arbitrary_float_times(self, claims):
        assert_same_as_reference(claims)


#: one step of a released run: ("release", rise, _) raises the horizon
#: by ``rise`` and releases it; ("claim", offset, duration) claims at
#: ``horizon + offset``, so no claim starts before the horizon
RELEASE_STEP = st.one_of(
    st.tuples(st.just("release"),
              st.integers(min_value=0, max_value=60).map(lambda x: x / 2),
              st.just(0.0)),
    st.tuples(st.just("claim"),
              st.integers(min_value=0, max_value=200).map(lambda x: x / 2),
              st.integers(min_value=0, max_value=40).map(lambda x: x / 2)))


class TestRelease:
    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(RELEASE_STEP, max_size=80))
    def test_release_changes_no_claim(self, steps):
        schedule = GapSchedule()
        intervals = []  # the reference never releases
        horizon = 0.0
        for kind, a, b in steps:
            if kind == "release":
                horizon += a
                schedule.release(horizon)
                # exactly the intervals that ended by the horizon left
                assert schedule.intervals == [
                    iv for iv in intervals if iv[1] > horizon]
            else:
                at = horizon + a
                assert schedule.claim(at, b) == \
                    reference_claim(intervals, at, b)
            kept = schedule.intervals
            assert kept == intervals[len(intervals) - len(kept):]
            if intervals:
                assert schedule.tail == intervals[-1][1]

    def test_release_keeps_tail_and_unfinished_intervals(self):
        schedule = GapSchedule()
        for at, duration in [(0.0, 10.0), (10.0, 10.0), (30.0, 10.0)]:
            schedule.claim(at, duration)
        schedule.release(25.0)
        assert schedule.intervals == [(30.0, 40.0)]
        schedule.release(35.0)  # busy until 40: kept
        assert schedule.intervals == [(30.0, 40.0)]
        schedule.release(40.0)
        assert schedule.intervals == []
        assert schedule.tail == 40.0
        assert schedule.claim(40.0, 5.0) == 40.0


class TestEdgeCases:
    def test_exactly_fitting_gap(self):
        assert_same_as_reference([(0.0, 10.0), (20.0, 10.0), (5.0, 10.0)])
        schedule = GapSchedule()
        for at, duration in [(0.0, 10.0), (20.0, 10.0)]:
            schedule.claim(at, duration)
        assert schedule.claim(5.0, 10.0) == 10.0  # fills [10, 20)
        assert schedule.intervals == [(0.0, 10.0), (10.0, 20.0),
                                      (20.0, 30.0)]

    def test_touching_claims_append(self):
        schedule = GapSchedule()
        assert schedule.claim(0.0, 5.0) == 0.0
        assert schedule.claim(5.0, 5.0) == 5.0
        assert schedule.tail == 10.0

    def test_zero_length_claims(self):
        assert_same_as_reference([(5.0, 3.0), (5.0, 0.0), (6.0, 0.0),
                                  (8.0, 0.0), (0.0, 0.0)])

    def test_claim_inside_a_busy_interval_waits_for_its_end(self):
        assert_same_as_reference([(0.0, 100.0), (50.0, 10.0)])
        schedule = GapSchedule()
        schedule.claim(0.0, 100.0)
        assert schedule.claim(50.0, 10.0) == 100.0
