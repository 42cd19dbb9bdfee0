"""Aliasing regression tests for the data-centre aggregate views.

Historically ``utilization_matrix`` (and friends) returned a fresh but
*writable* array; callers that treated it as scratch could, after an
internals change, end up mutating arrays that alias simulator state.
These tests pin the contract: every aggregate snapshot is read-only,
and no amount of caller-side abuse can corrupt subsequent reads.
"""

import numpy as np
import pytest

from repro.datacenter.cluster import DataCenter
from tests.conftest import make_trace

N_PMS = 6
N_VMS = 18
ROUNDS = 8


@pytest.fixture()
def dc():
    trace = make_trace(N_VMS, ROUNDS, seed=11)
    dc = DataCenter(N_PMS, N_VMS, trace)
    dc.place_randomly(np.random.default_rng(11))
    dc.advance_round()
    return dc


SNAPSHOTS = [
    lambda dc: dc.utilization_matrix(),
    lambda dc: dc.utilization_matrix(use_average=True),
    lambda dc: dc.pm_demand_matrix(),
    lambda dc: dc.pm_demand_matrix(use_average=True),
    lambda dc: dc.cpu_utilizations(),
]
SNAPSHOT_IDS = [
    "utilization_matrix",
    "utilization_matrix-avg",
    "pm_demand_matrix",
    "pm_demand_matrix-avg",
    "cpu_utilizations",
]


class TestReadOnlySnapshots:
    @pytest.mark.parametrize("snapshot", SNAPSHOTS, ids=SNAPSHOT_IDS)
    def test_returned_array_is_not_writable(self, dc, snapshot):
        arr = snapshot(dc)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0.0

    @pytest.mark.parametrize("snapshot", SNAPSHOTS, ids=SNAPSHOT_IDS)
    def test_attempted_mutation_cannot_corrupt_state(self, dc, snapshot):
        before = snapshot(dc).copy()
        arr = snapshot(dc)
        for blow in (
            lambda: arr.__setitem__(..., 123.0),
            lambda: arr.fill(-1.0),
            lambda: np.multiply(arr, 0.0, out=arr),
        ):
            with pytest.raises(ValueError):
                blow()
        # State behind every view is untouched; fresh reads agree bitwise.
        np.testing.assert_array_equal(snapshot(dc), before)
        assert dc.overloaded_count() == int(
            np.count_nonzero(
                np.any(dc.pm_demand_matrix() / dc.store.pm_cap >= 1.0, axis=1)
                & dc.awake_mask()
            )
        )

    def test_mutating_a_copy_is_fine_and_isolated(self, dc):
        arr = dc.utilization_matrix().copy()
        arr[...] = 42.0  # caller-side scratch work
        assert not np.any(dc.utilization_matrix() == 42.0)


class TestDetachedReturns:
    def test_placement_returns_a_detached_copy(self, dc):
        hosts = dc.placement()
        hosts[...] = -1
        assert np.all(dc.placement() >= 0)

    def test_awake_mask_is_detached_from_sleep_state(self, dc):
        mask = dc.awake_mask()
        mask[...] = False
        assert dc.active_count() == N_PMS
        assert np.all(dc.awake_mask())

    def test_snapshot_refreshes_after_real_mutation(self, dc):
        """Read-only must not mean stale: the next call reflects new state."""
        before = dc.utilization_matrix().copy()
        dc.advance_round()
        after = dc.utilization_matrix()
        assert not np.array_equal(after, before)
        # Sleep state is reflected immediately too.
        victim = next(pm for pm in dc.pms if pm.is_empty) if any(
            pm.is_empty for pm in dc.pms
        ) else None
        if victim is not None:
            victim.asleep = True
            assert np.all(dc.utilization_matrix()[victim.pm_id] == 0.0)
