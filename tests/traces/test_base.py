"""Tests for repro.traces.base — ArrayTrace validation and access."""

import numpy as np
import pytest

from repro.traces.base import ArrayTrace


def valid_data(n_vms=4, n_rounds=6):
    rng = np.random.default_rng(0)
    return rng.random((n_vms, n_rounds, 2))


class TestValidation:
    def test_accepts_valid(self):
        trace = ArrayTrace(valid_data())
        assert trace.n_vms == 4 and trace.n_rounds == 6

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            ArrayTrace(np.zeros((4, 6)))

    def test_rejects_wrong_resource_axis(self):
        with pytest.raises(ValueError):
            ArrayTrace(np.zeros((4, 6, 3)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ArrayTrace(np.zeros((0, 6, 2)))

    def test_rejects_out_of_range(self):
        data = valid_data()
        data[0, 0, 0] = 1.5
        with pytest.raises(ValueError):
            ArrayTrace(data)
        data[0, 0, 0] = -0.1
        with pytest.raises(ValueError):
            ArrayTrace(data)

    def test_rejects_nan(self):
        data = valid_data()
        data[1, 2, 0] = np.nan
        with pytest.raises(ValueError):
            ArrayTrace(data)

    @pytest.mark.parametrize("shape", [(4, 6), (4, 6, 3)])
    def test_shape_error_message(self, shape):
        with pytest.raises(ValueError, match=r"must have shape \(n_vms, n_rounds, 2\), got "):
            ArrayTrace(np.zeros(shape))

    def test_empty_error_message(self):
        with pytest.raises(ValueError, match=r"must be non-empty, got shape \(0, 6, 2\)"):
            ArrayTrace(np.zeros((0, 6, 2)))

    # The checks read min/max reductions, not array-sized masks: the
    # first and the last round slab are where a chunked scan would slip.
    @pytest.mark.parametrize("rnd", [0, 5])
    @pytest.mark.parametrize("bad", [-0.1, 1.5, np.inf, -np.inf])
    def test_out_of_range_names_the_values(self, rnd, bad):
        data = valid_data()
        data[2, rnd, 1] = bad
        with pytest.raises(ValueError, match="trace fractions must be within") as err:
            ArrayTrace(data)
        assert str(err.value).endswith(f"found values like {np.array([bad])}")

    @pytest.mark.parametrize("rnd", [0, 5])
    def test_nan_is_non_finite(self, rnd):
        data = valid_data()
        data[3, rnd, 0] = np.nan
        with pytest.raises(ValueError, match="^trace contains non-finite values$"):
            ArrayTrace(data)

    def test_out_of_range_reported_before_nan_in_vm_major_order(self):
        data = valid_data()
        data[0, 5, 0], data[1, 0, 0], data[3, 2, 1], data[3, 3, 0] = 1.5, np.nan, -2.0, 7.0
        with pytest.raises(ValueError) as err:
            ArrayTrace(data)
        assert str(err.value).endswith(f"found values like {np.array([1.5, -2.0, 7.0])}")


class TestAccess:
    def test_demands_at_shape(self):
        trace = ArrayTrace(valid_data())
        assert trace.demands_at(0).shape == (4, 2)

    def test_demands_match_data(self):
        data = valid_data()
        trace = ArrayTrace(data)
        np.testing.assert_array_equal(trace.demands_at(3), data[:, 3, :])

    def test_wraps_modulo(self):
        trace = ArrayTrace(valid_data(n_rounds=6))
        np.testing.assert_array_equal(trace.demands_at(6), trace.demands_at(0))
        np.testing.assert_array_equal(trace.demands_at(13), trace.demands_at(1))

    def test_negative_round_rejected(self):
        with pytest.raises(ValueError):
            ArrayTrace(valid_data()).demands_at(-1)

    def test_subset_shares_memory(self):
        trace = ArrayTrace(valid_data(n_vms=6))
        sub = trace.subset(3)
        assert sub.n_vms == 3
        assert np.shares_memory(sub.data, trace.data)

    def test_subset_wraps_modulo(self):
        data = valid_data(n_vms=6, n_rounds=5)
        sub = ArrayTrace(data).subset(4)
        np.testing.assert_array_equal(sub.demands_at(7), data[:4, 2, :])
        assert sub.demands_at(7).flags.c_contiguous
        np.testing.assert_array_equal(sub.data, data[:4])

    def test_subset_bounds(self):
        trace = ArrayTrace(valid_data(n_vms=4))
        with pytest.raises(ValueError):
            trace.subset(0)
        with pytest.raises(ValueError):
            trace.subset(5)


class TestLayout:
    """Round-major storage behind the ``(n_vms, n_rounds, 2)`` interface."""

    def test_round_slab_is_contiguous_and_shared(self):
        data = valid_data(n_vms=7, n_rounds=5)
        trace = ArrayTrace(data)
        assert trace.data.shape == (7, 5, 2)
        np.testing.assert_array_equal(trace.data, data)
        for t in range(5):
            slab = trace.demands_at(t)
            assert slab.flags.c_contiguous
            assert np.shares_memory(trace.data, slab)

    def test_vm_major_input_is_converted_once_and_not_aliased(self):
        data = valid_data()
        trace = ArrayTrace(data)
        assert not np.shares_memory(trace.data, data)
        data[0, 0, 0] = 0.123  # the caller's array stays theirs
        assert trace.demands_at(0)[0, 0] != 0.123

    def test_round_major_view_is_adopted_without_a_copy(self):
        rounds = np.ascontiguousarray(valid_data().transpose(1, 0, 2))
        trace = ArrayTrace(rounds.transpose(1, 0, 2))
        assert np.shares_memory(trace.data, rounds)
        assert rounds.flags.writeable  # only the trace's own view is frozen

    def test_builder_output_is_adopted(self):
        from repro.traces.synthetic import SyntheticTraceBuilder

        builder = SyntheticTraceBuilder(5, 4, np.random.default_rng(0))
        backing = builder._sum
        trace = builder.with_cpu_base(np.full(5, 0.3)).with_mem_base(np.full(5, 0.2)).build()
        assert np.shares_memory(trace.data, backing)


class TestReadOnly:
    def test_writes_raise(self):
        trace = ArrayTrace(valid_data())
        for view in (trace.data, trace.demands_at(2), trace.subset(2).data,
                     trace.subset(2).demands_at(1)):
            assert not view.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                view[0, 0] = 0.5

    def test_generated_trace_is_read_only(self):
        from tests.conftest import make_trace

        trace = make_trace(6, 4)
        with pytest.raises(ValueError, match="read-only"):
            trace.data[0, 0, 0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            trace.demands_at(1)[...] = 0.0

    def test_full_runs_share_one_trace_without_writing(self):
        # Two policies over one TraceCache entry: neither needs a write
        # (one would raise), and the workload is unchanged afterwards.
        from repro.experiments.runner import TraceCache, make_policy, run_policy
        from repro.experiments.scenarios import Scenario

        scenario = Scenario(n_pms=12, ratio=2, rounds=6, warmup_rounds=35, repetitions=1)
        cache = TraceCache()
        trace = cache.get(scenario, 5)
        before = trace.data.copy()
        for name in ("GLAP", "GRMP"):
            result = run_policy(scenario, make_policy(name), 5, trace=cache.get(scenario, 5))
            assert result.rounds == 6
        assert cache.hits == 2
        np.testing.assert_array_equal(trace.data, before)
