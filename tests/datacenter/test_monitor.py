"""Tests for repro.datacenter.monitor — the {c, v} piggyback average."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datacenter.columnar import ColumnarStore
from repro.datacenter.monitor import VmMonitor

fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def make_monitor() -> VmMonitor:
    """The monitor of the one VM of a fresh store."""
    return ColumnarStore(1, 1).vms[0].monitor


class TestVmMonitor:
    def test_initial_state(self):
        m = make_monitor()
        assert m.count == 0
        np.testing.assert_array_equal(m.current, [0.0, 0.0])
        np.testing.assert_array_equal(m.average, [0.0, 0.0])

    def test_single_observation(self):
        m = make_monitor()
        m.observe(np.array([0.5, 0.3]))
        np.testing.assert_array_equal(m.current, [0.5, 0.3])
        np.testing.assert_array_equal(m.average, [0.5, 0.3])
        assert m.count == 1

    def test_paper_update_formula(self):
        # v' = (c*v + d)/(c+1) per resource.
        m = make_monitor()
        m.observe(np.array([0.2, 0.4]))
        m.observe(np.array([0.8, 0.0]))
        np.testing.assert_allclose(m.average, [0.5, 0.2])
        np.testing.assert_array_equal(m.current, [0.8, 0.0])

    def test_current_tracks_latest_only(self):
        m = make_monitor()
        for x in (0.1, 0.9, 0.3):
            m.observe(np.array([x, x]))
        np.testing.assert_array_equal(m.current, [0.3, 0.3])

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            make_monitor().observe(np.array([0.5]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            make_monitor().observe(np.array([1.5, 0.0]))
        with pytest.raises(ValueError):
            make_monitor().observe(np.array([-0.1, 0.0]))

    def test_state_lives_in_the_store(self):
        m = make_monitor()
        m.observe(np.array([0.5, 0.25]))
        store = m._store
        assert np.shares_memory(m.current, store.cur) and np.shares_memory(m.average, store.avg)
        assert store.monitor_count[0] == m.count == 1
        np.testing.assert_array_equal(store.avg[0], [0.5, 0.25])

    @given(st.lists(st.tuples(fractions, fractions), min_size=1, max_size=40))
    @settings(max_examples=60)
    def test_property_average_matches_mean(self, samples):
        m = make_monitor()
        for cpu, mem in samples:
            m.observe(np.array([cpu, mem]))
        expected = np.mean(np.array(samples), axis=0)
        np.testing.assert_allclose(m.average, expected, atol=1e-9)
        assert m.count == len(samples)

    @given(st.lists(st.tuples(fractions, fractions), min_size=1, max_size=40))
    @settings(max_examples=30)
    def test_property_average_stays_in_unit_box(self, samples):
        m = make_monitor()
        for cpu, mem in samples:
            m.observe(np.array([cpu, mem]))
        assert np.all(m.average >= 0.0) and np.all(m.average <= 1.0)
