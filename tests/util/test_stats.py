"""Tests for repro.util.stats — percentile summaries — including
hypothesis property tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.stats import percentile_summary

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestPercentileSummary:
    def test_basic(self):
        s = percentile_summary(list(range(1, 101)))
        assert s.median == pytest.approx(50.5)
        assert s.p10 < s.median < s.p90
        assert s.count == 100

    def test_single_sample(self):
        s = percentile_summary([7.0])
        assert s.median == s.p10 == s.p90 == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile_summary([])

    def test_str_contains_numbers(self):
        text = str(percentile_summary([1.0, 2.0, 3.0]))
        assert "2" in text

    @given(st.lists(finite_floats, min_size=1, max_size=60))
    @settings(max_examples=50)
    def test_property_ordering(self, xs):
        s = percentile_summary(xs)
        assert s.p10 <= s.median <= s.p90
        assert min(xs) <= s.median <= max(xs)
