"""Tests for repro.baselines.thresholds — the MAD estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.thresholds import mad, mad_upper_threshold

utils = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=3, max_size=60
)


class TestMad:
    def test_known_value(self):
        # median=3, deviations |x-3| = [2,1,0,1,2] -> median 1.
        assert mad([1, 2, 3, 4, 5]) == 1.0

    def test_constant_series_zero(self):
        assert mad([0.5] * 10) == 0.0

    def test_robust_to_outliers(self):
        base = [0.5] * 20
        assert mad(base + [100.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mad([])


class TestUpperThresholds:
    def test_stable_history_high_threshold(self):
        # Low dispersion -> threshold near 1 (safe to pack tight).
        t = mad_upper_threshold([0.5, 0.5, 0.51, 0.49, 0.5])
        assert t > 0.9

    def test_volatile_history_low_threshold(self):
        rng = np.random.default_rng(0)
        history = rng.uniform(0.1, 0.9, size=50)
        t = mad_upper_threshold(history)
        assert t < 0.8

    def test_floor_respected(self):
        history = [0.0, 1.0] * 20  # MAD = 0.5 -> raw threshold < 0
        assert mad_upper_threshold(history, floor=0.5) == 0.5

    def test_short_history_returns_one(self):
        assert mad_upper_threshold([0.5, 0.7]) == 1.0

    def test_beloglazov_formula(self):
        history = [0.3, 0.5, 0.7, 0.5, 0.5]
        expected = 1.0 - 2.58 * mad(history)
        assert mad_upper_threshold(history) == pytest.approx(max(0.5, expected))

    def test_invalid_safety_rejected(self):
        with pytest.raises(ValueError):
            mad_upper_threshold([0.5] * 5, safety=-1.0)

    @given(utils)
    @settings(max_examples=60)
    def test_property_threshold_bounded(self, history):
        t = mad_upper_threshold(history)
        assert 0.5 <= t <= 1.0
