"""The VM monitor (VMM, section IV-B): the ``{c, v}`` piggyback average.

The data centre's round update folds every VM's demand sample into the
store's ``cur`` / ``avg`` / ``monitor_count`` columns; these tests feed
VM 0 one sample per round and read the columns back.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datacenter.cluster import DataCenter
from repro.datacenter.columnar import ColumnarStore

fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class _Samples:
    """A one-VM trace handing out ``samples[r]`` in round ``r``, unchecked
    (so the data centre's own checks are what refuses a bad sample)."""

    n_vms = 1

    def __init__(self, samples) -> None:
        self.samples = samples

    def demands_at(self, round_index: int) -> np.ndarray:
        return np.array([self.samples[round_index]], dtype=np.float64)


def monitored(*samples) -> ColumnarStore:
    """The store of a one-PM, one-VM data centre after one round per sample."""
    dc = DataCenter(1, 1, _Samples(samples))
    dc.apply_placement([0])
    for _ in samples:
        dc.advance_round()
    return dc.store


class TestVmMonitor:
    def test_initial_state(self):
        store = ColumnarStore(1, 1)
        assert store.monitor_count[0] == 0
        np.testing.assert_array_equal(store.cur[0], [0.0, 0.0])
        np.testing.assert_array_equal(store.avg[0], [0.0, 0.0])

    def test_single_observation(self):
        store = monitored((0.5, 0.3))
        np.testing.assert_array_equal(store.cur[0], [0.5, 0.3])
        np.testing.assert_array_equal(store.avg[0], [0.5, 0.3])
        assert store.monitor_count[0] == 1

    def test_paper_update_formula(self):
        # v' = (c*v + d)/(c+1) per resource.
        store = monitored((0.2, 0.4), (0.8, 0.0))
        np.testing.assert_allclose(store.avg[0], [0.5, 0.2])
        np.testing.assert_array_equal(store.cur[0], [0.8, 0.0])

    def test_current_tracks_latest_only(self):
        store = monitored(*[(x, x) for x in (0.1, 0.9, 0.3)])
        np.testing.assert_array_equal(store.cur[0], [0.3, 0.3])

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="demand shape"):
            monitored((0.5,))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            monitored((1.5, 0.0))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            monitored((-0.1, 0.0))

    def test_state_lives_in_the_store(self):
        """The planes the protocols read derive from the monitor columns."""
        store = monitored((0.5, 0.25))
        assert store.monitor_count[0] == 1
        np.testing.assert_array_equal(store.avg[0], [0.5, 0.25])
        store.ensure_planes()
        assert [store.vm_avg_cpu[0], store.vm_avg_mem[0]] == (store.avg[0] * store.vm_cap[0]).tolist()

    @given(st.lists(st.tuples(fractions, fractions), min_size=1, max_size=40))
    @settings(max_examples=60)
    def test_property_average_matches_mean(self, samples):
        store = monitored(*samples)
        expected = np.mean(np.array(samples), axis=0)
        np.testing.assert_allclose(store.avg[0], expected, atol=1e-9)
        assert store.monitor_count[0] == len(samples)

    @given(st.lists(st.tuples(fractions, fractions), min_size=1, max_size=40))
    @settings(max_examples=30)
    def test_property_average_stays_in_unit_box(self, samples):
        avg = monitored(*samples).avg[0]
        assert np.all(avg >= 0.0) and np.all(avg <= 1.0)
