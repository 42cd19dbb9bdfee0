"""Tests for repro.traces.google — the calibrated generator."""

import numpy as np
import pytest

from repro.traces.google import GoogleLikeTraceGenerator, GoogleTraceParams
from repro.traces.stats import summarize_trace


@pytest.fixture(scope="module")
def trace():
    return GoogleLikeTraceGenerator().generate(300, 400, np.random.default_rng(0))


class TestCalibration:
    def test_cpu_mean_in_google_band(self, trace):
        stats = summarize_trace(trace)
        # VMs "utilize resources much less than their initial allocation"
        # yet enough to stress a consolidated DC: mean CPU ~0.3-0.5.
        assert 0.25 < stats.cpu_mean < 0.55

    def test_cpu_heavy_tail(self, trace):
        stats = summarize_trace(trace)
        assert stats.cpu_p95 > 1.5 * stats.cpu_mean

    def test_strong_autocorrelation(self, trace):
        stats = summarize_trace(trace)
        assert stats.cpu_autocorr > 0.7

    def test_memory_flatter_than_cpu(self, trace):
        stats = summarize_trace(trace)
        assert stats.mem_std < stats.cpu_std
        assert stats.mem_autocorr > stats.cpu_autocorr

    def test_memory_below_cpu_on_average(self, trace):
        stats = summarize_trace(trace)
        assert stats.mem_mean < stats.cpu_mean

    def test_temporal_variability_present(self, trace):
        stats = summarize_trace(trace)
        # Without per-VM variability over time there is nothing dynamic
        # to consolidate against.
        assert stats.mean_temporal_cv > 0.1

    def test_values_in_unit_box(self, trace):
        assert trace.data.min() >= 0.0 and trace.data.max() <= 1.0


class TestDeterminism:
    def test_same_seed_same_trace(self):
        gen = GoogleLikeTraceGenerator()
        a = gen.generate(10, 20, np.random.default_rng(5))
        b = gen.generate(10, 20, np.random.default_rng(5))
        np.testing.assert_array_equal(a.data, b.data)

    def test_different_seed_differs(self):
        gen = GoogleLikeTraceGenerator()
        a = gen.generate(10, 20, np.random.default_rng(5))
        b = gen.generate(10, 20, np.random.default_rng(6))
        assert not np.array_equal(a.data, b.data)


class TestVariants:
    def test_bursty_has_more_variance(self):
        rng_a, rng_b = np.random.default_rng(1), np.random.default_rng(1)
        normal = GoogleLikeTraceGenerator().generate(100, 300, rng_a)
        bursty = GoogleLikeTraceGenerator.bursty().generate(100, 300, rng_b)
        assert summarize_trace(bursty).mean_temporal_cv > summarize_trace(
            normal
        ).mean_temporal_cv

    def test_steady_has_less_variance(self):
        rng_a, rng_b = np.random.default_rng(1), np.random.default_rng(1)
        normal = GoogleLikeTraceGenerator().generate(100, 300, rng_a)
        steady = GoogleLikeTraceGenerator.steady().generate(100, 300, rng_b)
        assert summarize_trace(steady).mean_temporal_cv < summarize_trace(
            normal
        ).mean_temporal_cv


class TestParams:
    def test_invalid_cpu_range(self):
        with pytest.raises(ValueError):
            GoogleTraceParams(cpu_min=0.5, cpu_max=0.4)

    def test_invalid_burst_magnitude(self):
        with pytest.raises(ValueError):
            GoogleTraceParams(burst_magnitude=1.5)

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            GoogleTraceParams(mem_beta_a=0.0)

    def test_diurnal_period_respected(self):
        params = GoogleTraceParams(
            rounds_per_day=50,
            diurnal_amplitude=(0.2, 0.2),
            diurnal_shared_fraction=1.0,
            ar1_sigma=0.001,
            burst_start_p=0.0,
        )
        trace = GoogleLikeTraceGenerator(params).generate(
            200, 100, np.random.default_rng(0)
        )
        total = trace.data[:, :, 0].sum(axis=0)
        # Aggregate demand should show a strong 50-round periodicity.
        first, second = total[:50], total[50:]
        assert np.corrcoef(first, second)[0, 1] > 0.9


class TestBuildMemory:
    def test_peak_stays_near_the_resident_array(self):
        # Synthesis works in blocks of VM rows straight into the array the
        # trace keeps: scratch is a few blocks plus O(n_vms) vectors.  The
        # dense builder peaked at 2.5x the resident array on this shape;
        # one re-introduced full-size temporary reads >= 1.5x.
        import tracemalloc

        tracemalloc.start()
        try:
            trace = GoogleLikeTraceGenerator().generate(60_000, 24, np.random.default_rng(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.data.nbytes == 60_000 * 24 * 2 * 8
        assert peak <= 1.5 * trace.data.nbytes, f"peak {peak / trace.data.nbytes:.2f}x resident"
