"""Tests for repro.util.stats — cosine similarity and percentile
summaries — including hypothesis property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.stats import cosine_similarity, percentile_summary

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestCosineSimilarity:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0)

    def test_opposite(self):
        assert cosine_similarity([1.0, 1.0], [-1.0, -1.0]) == pytest.approx(-1.0)

    def test_both_zero_defined_as_one(self):
        assert cosine_similarity(np.zeros(4), np.zeros(4)) == 1.0

    def test_one_zero_gives_zero(self):
        assert cosine_similarity(np.zeros(3), np.ones(3)) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cosine_similarity(np.ones(2), np.ones(3))

    def test_scale_invariant(self):
        a = np.array([0.3, 0.7, 0.1])
        assert cosine_similarity(a, 100 * a) == pytest.approx(1.0)

    @given(
        st.lists(finite_floats, min_size=2, max_size=10),
        st.lists(finite_floats, min_size=2, max_size=10),
    )
    @settings(max_examples=50)
    def test_property_bounded(self, a, b):
        n = min(len(a), len(b))
        s = cosine_similarity(np.array(a[:n]), np.array(b[:n]))
        assert -1.0 <= s <= 1.0

    @given(st.lists(finite_floats, min_size=2, max_size=10))
    @settings(max_examples=50)
    def test_property_symmetric(self, a):
        x = np.array(a)
        y = x[::-1].copy()
        assert cosine_similarity(x, y) == pytest.approx(cosine_similarity(y, x))


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
