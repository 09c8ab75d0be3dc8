"""Edge cases of the latency histograms (:mod:`repro.service.stats`).

The serving benches exercise the happy path; these tests pin down the
corners: zero/negative durations, observations past the top bucket
boundary, and merge/percentile behaviour on empty histograms.
"""

import pytest

from repro.service.stats import LatencyHistogram
from repro.service.stats import _BOUNDS


class TestZeroDuration:
    def test_zero_lands_in_first_bucket(self):
        hist = LatencyHistogram()
        hist.observe(0.0)
        assert hist.count == 1
        assert hist.total_seconds == 0.0
        assert hist.max_seconds == 0.0
        snap = hist.snapshot()
        assert snap["buckets"] == [[round(_BOUNDS[0] * 1e3, 4), 1]]

    def test_negative_clamps_to_zero(self):
        hist = LatencyHistogram()
        hist.observe(-3.5)
        assert hist.count == 1
        assert hist.total_seconds == 0.0
        assert hist.max_seconds == 0.0

    def test_zero_percentiles_report_zero(self):
        hist = LatencyHistogram()
        for _ in range(10):
            hist.observe(0.0)
        # Upper-bound estimates are clamped to the observed max (0.0),
        # not the first bucket boundary.
        assert hist.percentile(50) == 0.0
        assert hist.percentile(100) == 0.0


class TestOverflowBucket:
    def test_above_top_bound_lands_in_overflow(self):
        hist = LatencyHistogram()
        huge = _BOUNDS[-1] * 2.0  # ~420 s, past every finite bound
        hist.observe(huge)
        snap = hist.snapshot()
        assert snap["count"] == 1
        assert snap["buckets"] == [[None, 1]]  # null upper bound
        assert snap["max_ms"] == round(huge * 1e3, 3)

    def test_overflow_percentile_is_exact_max(self):
        hist = LatencyHistogram()
        hist.observe(_BOUNDS[-1] * 3.0)
        hist.observe(_BOUNDS[-1] * 5.0)
        # The overflow bucket has no boundary; the estimate falls back
        # to the exact observed peak.
        assert hist.percentile(99) == _BOUNDS[-1] * 5.0

    def test_boundary_value_is_not_overflow(self):
        hist = LatencyHistogram()
        hist.observe(_BOUNDS[-1])  # inclusive upper bound of the last bucket
        assert hist.snapshot()["buckets"][0][0] is not None


class TestEmptyHistograms:
    def test_empty_percentile_is_zero(self):
        hist = LatencyHistogram()
        assert hist.percentile(0) == 0.0
        assert hist.percentile(50) == 0.0
        assert hist.percentile(100) == 0.0

    def test_percentile_range_validated(self):
        hist = LatencyHistogram()
        with pytest.raises(ValueError):
            hist.percentile(-1)
        with pytest.raises(ValueError):
            hist.percentile(100.5)

    def test_empty_snapshot(self):
        snap = LatencyHistogram().snapshot()
        assert snap["count"] == 0
        assert snap["mean_ms"] == 0.0
        assert snap["buckets"] == []

    def test_merge_of_empty_changes_nothing(self):
        hist = LatencyHistogram()
        hist.observe(0.01)
        before = hist.snapshot()
        hist.merge(LatencyHistogram())
        assert hist.snapshot() == before

    def test_merge_into_empty_copies_everything(self):
        source = LatencyHistogram()
        source.observe(0.02)
        source.observe(_BOUNDS[-1] * 2.0)
        target = LatencyHistogram()
        target.merge(source)
        assert target.snapshot() == source.snapshot()
        # The source is left untouched.
        assert source.count == 2

    def test_self_merge_is_a_noop(self):
        hist = LatencyHistogram()
        hist.observe(0.5)
        hist.merge(hist)
        assert hist.count == 1
        assert hist.total_seconds == 0.5


class TestMergeAccounting:
    def test_counts_add_and_peak_takes_max(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.observe(0.001)
        a.observe(0.004)
        b.observe(2.0)
        a.merge(b)
        assert a.count == 3
        assert a.total_seconds == pytest.approx(2.005)
        assert a.max_seconds == 2.0
