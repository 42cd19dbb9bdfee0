"""Tests for repro.metrics.collector and repro.metrics.report."""

import numpy as np
import pytest

from repro.metrics.collector import MetricsCollector, RoundSeries
from repro.metrics.report import RunResult, aggregate_runs
from repro.traces.base import ArrayTrace

from tests.conftest import make_datacenter


class TestRoundSeries:
    def test_append_and_convert(self):
        s = RoundSeries("x")
        s.append(1)
        s.append(2.5)
        np.testing.assert_array_equal(s.as_array(), [1.0, 2.5])
        assert len(s) == 2


class TestMetricsCollector:
    def test_samples_all_series(self):
        dc = make_datacenter()
        collector = MetricsCollector(dc)
        collector.sample()
        for name in MetricsCollector.SERIES:
            assert len(collector.get(name)) == 1

    def test_unknown_series_rejected(self):
        collector = MetricsCollector(make_datacenter())
        with pytest.raises(KeyError, match="available"):
            collector.get("nope")

    def test_migrations_are_deltas_not_totals(self):
        dc = make_datacenter()
        collector = MetricsCollector(dc)
        dc.migrate(0, (int(dc.store.host[0]) + 1) % dc.n_pms)
        collector.sample()
        collector.sample()  # no migration between samples
        migs = collector.get("migrations")
        np.testing.assert_array_equal(migs, [1.0, 0.0])
        np.testing.assert_array_equal(
            collector.get("cumulative_migrations"), [1.0, 1.0]
        )

    def test_ignores_migrations_before_collection_started(self):
        dc = make_datacenter()
        dc.migrate(0, (int(dc.store.host[0]) + 1) % dc.n_pms)
        collector = MetricsCollector(dc)  # created after the migration
        collector.sample()
        assert collector.get("cumulative_migrations")[0] == 0.0

    def test_active_series_reflects_sleep(self):
        dc = make_datacenter(n_pms=5)
        collector = MetricsCollector(dc)
        collector.sample()
        dc.store.pm_asleep[0] = True
        collector.sample()
        np.testing.assert_array_equal(collector.get("active"), [5.0, 4.0])

    def test_shared_demand_matrix_changes_no_sample(self):
        # sample() derives one PM demand matrix for the overloaded count,
        # its fraction and the power; each must equal what the data
        # centre and the standalone power function derive on their own.
        from repro.datacenter.cluster import DataCenter
        from repro.metrics.energy import datacenter_power_w
        from tests.conftest import make_trace

        data = make_trace(60, 8, 1).data.copy()
        data[..., 0] = 0.5 + data[..., 0] / 2  # crowded hosts overload
        trace = ArrayTrace(data)
        dc = DataCenter(6, 60, trace)
        dc.apply_placement(np.random.default_rng(1).integers(0, 4, size=60))
        dc.store.pm_asleep[5] = True
        collector = MetricsCollector(dc)
        for r in range(6):
            dc.advance_round()
            collector.sample()
            assert collector.get("overloaded")[r] == dc.overloaded_count() > 0
            fraction = dc.overloaded_count() / dc.active_count()
            assert collector.get("overloaded_fraction")[r].hex() == fraction.hex()
            assert collector.get("dc_power")[r].hex() == datacenter_power_w(dc).hex()
        dc.store.pm_asleep[:] = True
        collector.sample()
        assert dc.active_count() == 0
        assert collector.get("overloaded_fraction")[-1] == 0.0


def run_with(policy="X", seed=0, slav=0.0, migrations=0, series=None):
    r = RunResult(policy=policy, n_pms=10, n_vms=30, rounds=4, seed=seed)
    r.slav = slav
    r.total_migrations = migrations
    r.series = series or {
        "overloaded": np.array([1.0, 2.0, 3.0, 4.0]),
        "active": np.array([8.0, 8.0, 7.0, 7.0]),
    }
    return r


class TestRunResult:
    def test_ratio(self):
        assert run_with().ratio == 3.0

    def test_mean_of(self):
        assert run_with().mean_of("overloaded") == pytest.approx(2.5)

    def test_mean_of_missing_series(self):
        with pytest.raises(KeyError):
            run_with().mean_of("nope")

    def test_str_mentions_policy(self):
        assert "X" in str(run_with())


class TestAggregateRuns:
    def test_scalar_aggregation(self):
        runs = [run_with(seed=i, slav=float(i)) for i in range(5)]
        agg = aggregate_runs(runs, "slav")
        assert agg.summary.median == 2.0
        assert agg.metric == "slav"
        assert agg.policy == "X"

    def test_per_round_pooling(self):
        # Pools every per-round sample across repetitions (the paper's
        # Figure 7/8 methodology).
        runs = [run_with(seed=i) for i in range(3)]
        agg = aggregate_runs(runs, "overloaded", per_round=True)
        assert agg.summary.count == 12  # 3 runs x 4 rounds
        assert agg.summary.median == 2.5

    def test_mixed_configurations_rejected(self):
        a = run_with()
        b = run_with()
        b.n_pms = 20
        with pytest.raises(ValueError, match="mixed"):
            aggregate_runs([a, b], "slav")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_runs([], "slav")

    def test_missing_series_rejected(self):
        runs = [run_with()]
        with pytest.raises(KeyError):
            aggregate_runs(runs, "nope", per_round=True)

    def test_str_format(self):
        agg = aggregate_runs([run_with(slav=1.0)], "slav")
        assert "slav" in str(agg)
