"""Unit tests for online statistics."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.stats import (
    DeficitTracker,
    LatencyRecorder,
    OnlineStats,
    TimeWeighted,
    WindowAverage,
)


class TestOnlineStats:
    def test_empty(self):
        s = OnlineStats()
        assert s.n == 0
        assert s.mean == 0.0
        assert s.variance == 0.0

    def test_matches_numpy(self, rng):
        xs = rng.normal(5.0, 2.0, size=500)
        s = OnlineStats()
        for x in xs:
            s.add(float(x))
        assert s.n == 500
        assert s.mean == pytest.approx(np.mean(xs))
        assert s.variance == pytest.approx(np.var(xs))
        assert s.min == pytest.approx(xs.min())
        assert s.max == pytest.approx(xs.max())
        assert s.total == pytest.approx(xs.sum())

    def test_add_all_is_bit_identical_to_add(self, rng):
        xs = rng.exponential(4096.0, size=300).tolist()
        one, bulk = OnlineStats(), OnlineStats()
        one.add(7.0)
        bulk.add(7.0)
        for x in xs:
            one.add(x)
        bulk.add_all(xs[:100])
        bulk.add_all(xs[100:])
        assert (bulk.n, bulk.total, bulk.mean, bulk._m2, bulk.min, bulk.max) == (
            one.n, one.total, one.mean, one._m2, one.min, one.max)

    def test_single_observation(self):
        s = OnlineStats()
        s.add(3.5)
        assert s.mean == 3.5
        assert s.variance == 0.0
        assert s.min == s.max == 3.5

    def test_merge_matches_sequential(self, rng):
        xs = rng.exponential(1.0, size=200)
        a, b, c = OnlineStats(), OnlineStats(), OnlineStats()
        for x in xs[:80]:
            a.add(float(x))
        for x in xs[80:]:
            b.add(float(x))
        for x in xs:
            c.add(float(x))
        a.merge(b)
        assert a.n == c.n
        assert a.mean == pytest.approx(c.mean)
        assert a.variance == pytest.approx(c.variance)

    def test_merge_empty_sides(self):
        a = OnlineStats()
        b = OnlineStats()
        b.add(2.0)
        a.merge(b)
        assert a.n == 1 and a.mean == 2.0
        b.merge(OnlineStats())
        assert b.n == 1


class TestLatencyRecorder:
    def test_percentiles_exact(self):
        r = LatencyRecorder()
        for x in range(1, 101):
            r.add(float(x))
        assert r.percentile(50) == pytest.approx(50.5)
        assert r.percentile(95) == pytest.approx(np.percentile(range(1, 101), 95))

    def test_no_samples_raises(self):
        r = LatencyRecorder()
        with pytest.raises(ValueError):
            r.percentile(50)

    def test_keep_samples_false(self):
        r = LatencyRecorder(keep_samples=False)
        r.add(1.0)
        assert r.mean == 1.0
        with pytest.raises(ValueError):
            r.percentile(50)
        assert len(r.samples()) == 0


class TestTimeWeighted:
    def test_integral(self):
        tw = TimeWeighted(initial=2.0)
        tw.update(3.0, 5.0)   # 2.0 for 3s = 6
        tw.update(5.0, 0.0)   # 5.0 for 2s = 10
        assert tw.integral == pytest.approx(16.0)

    def test_mean(self):
        tw = TimeWeighted(initial=4.0)
        tw.update(2.0, 0.0)
        assert tw.mean(4.0) == pytest.approx(2.0)  # (4*2 + 0*2) / 4

    def test_time_backwards_raises(self):
        tw = TimeWeighted()
        tw.update(2.0, 1.0)
        with pytest.raises(ValueError):
            tw.update(1.0, 1.0)

    def test_advance_keeps_value(self):
        tw = TimeWeighted(initial=3.0)
        tw.advance(2.0)
        assert tw.value == 3.0
        assert tw.integral == pytest.approx(6.0)


class TestDeficitTracker:
    def test_positive_goal_required(self):
        with pytest.raises(ValueError):
            DeficitTracker(0.0)

    def test_deficit_accumulates_overshoot(self):
        d = DeficitTracker(goal=0.010)
        d.add(0.015)
        assert d.deficit == pytest.approx(0.005)
        assert d.violated

    def test_credit_accumulates_undershoot(self):
        d = DeficitTracker(goal=0.010)
        d.add(0.004)
        d.add(0.004)
        assert d.deficit == pytest.approx(-0.012)
        assert not d.violated
        assert d.headroom() == pytest.approx(0.012)

    def test_cumulative_average_identity(self, rng):
        d = DeficitTracker(goal=0.010)
        xs = rng.uniform(0.0, 0.03, size=100)
        for x in xs:
            d.add(float(x))
        assert d.cumulative_average == pytest.approx(float(np.mean(xs)))

    def test_violation_iff_average_exceeds_goal(self):
        d = DeficitTracker(goal=0.010)
        d.add(0.009)
        d.add(0.012)
        # average 10.5ms > 10ms
        assert d.violated
        d.add(0.001)
        assert not d.violated

    def test_empty_average_is_zero(self):
        assert DeficitTracker(1.0).cumulative_average == 0.0


class TestWindowAverage:
    def test_windows_roll(self):
        w = WindowAverage(width=10.0)
        w.add(1.0, 4.0)
        w.add(2.0, 6.0)
        w.add(11.0, 10.0)
        points = w.finish(20.0)
        assert points[0] == (0.0, 5.0, 2)
        assert points[1] == (10.0, 10.0, 1)

    def test_empty_windows_recorded_as_nan(self):
        # An empty window has no mean; 0.0 would be indistinguishable
        # from a genuine zero-latency window.
        w = WindowAverage(width=5.0)
        w.add(12.0, 1.0)
        points = w.finish(13.0)
        assert points[0][0] == 0.0 and math.isnan(points[0][1]) and points[0][2] == 0
        assert points[1][0] == 5.0 and math.isnan(points[1][1]) and points[1][2] == 0
        assert points[2] == (10.0, 1.0, 1)

    def test_finish_is_complete(self):
        w = WindowAverage(width=5.0)
        w.add(1.0, 2.0)
        points = w.finish(4.0)
        assert points == [(0.0, 2.0, 1)]


class TestMergePropertyBased:
    """Property tests for the parallel Welford merge.

    ``merge`` becomes load-bearing once results are combined across
    worker processes (repro.analysis.parallel), so merging any partition
    of a stream must be indistinguishable from observing it sequentially.
    """

    finite = st.floats(min_value=-1e6, max_value=1e6,
                       allow_nan=False, allow_infinity=False)

    @given(xs=st.lists(finite, max_size=200), split=st.integers(min_value=0, max_value=200))
    @settings(max_examples=200, deadline=None)
    def test_two_way_merge_matches_sequential(self, xs, split):
        split = min(split, len(xs))
        left, right, sequential = OnlineStats(), OnlineStats(), OnlineStats()
        for x in xs[:split]:
            left.add(x)
        for x in xs[split:]:
            right.add(x)
        for x in xs:
            sequential.add(x)
        left.merge(right)
        assert left.n == sequential.n
        assert left.total == pytest.approx(sequential.total, rel=1e-9, abs=1e-9)
        assert left.mean == pytest.approx(sequential.mean, rel=1e-9, abs=1e-9)
        assert left.variance == pytest.approx(sequential.variance, rel=1e-6, abs=1e-9)
        if xs:
            assert left.min == sequential.min
            assert left.max == sequential.max

    @given(chunks=st.lists(st.lists(finite, max_size=50), max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_chunked_merge_matches_sequential(self, chunks):
        merged, sequential = OnlineStats(), OnlineStats()
        for chunk in chunks:
            part = OnlineStats()
            for x in chunk:
                part.add(x)
                sequential.add(x)
            merged.merge(part)
        assert merged.n == sequential.n
        assert merged.mean == pytest.approx(sequential.mean, rel=1e-9, abs=1e-9)
        assert merged.variance == pytest.approx(sequential.variance, rel=1e-6, abs=1e-9)

    @given(xs=st.lists(finite, min_size=1, max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_merge_into_empty_is_copy(self, xs):
        src, dst = OnlineStats(), OnlineStats()
        for x in xs:
            src.add(x)
        dst.merge(src)
        assert (dst.n, dst.mean, dst.variance, dst.min, dst.max, dst.total) == (
            src.n, src.mean, src.variance, src.min, src.max, src.total)

    @given(xs=st.lists(finite, min_size=1, max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_merge_empty_is_noop(self, xs):
        s = OnlineStats()
        for x in xs:
            s.add(x)
        before = (s.n, s.mean, s.variance, s.min, s.max, s.total)
        s.merge(OnlineStats())
        assert (s.n, s.mean, s.variance, s.min, s.max, s.total) == before
