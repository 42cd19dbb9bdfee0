"""Tests for repro.experiments.store — result archiving."""

import json

import numpy as np
import pytest

from repro.experiments.parallel import SweepResults, run_sweep
from repro.experiments.scenarios import Scenario
from repro.experiments.store import (
    load_results,
    load_sweep,
    save_results,
    save_sweep,
)
from repro.metrics.report import RunResult, aggregate_runs
from repro.traces.google import GoogleTraceParams


def sample_run(seed=0, policy="GLAP") -> RunResult:
    r = RunResult(policy=policy, n_pms=10, n_vms=20, rounds=5, seed=seed)
    r.slavo, r.slalm, r.slav = 0.1, 0.01, 0.001
    r.total_migrations = 42
    r.migration_energy_j = 123.5
    r.dc_energy_j = 4567.0
    r.final_active = 4
    r.bfd_baseline_pms = 3
    r.series = {
        "active": np.array([10.0, 8.0, 6.0, 5.0, 4.0]),
        "overloaded": np.zeros(5),
    }
    r.extras = {"note": 1.0}
    return r


class TestResultsRoundTrip:
    def test_scalars_preserved(self, tmp_path):
        path = tmp_path / "runs.json"
        save_results([sample_run()], path)
        (loaded,) = load_results(path)
        for field in ("policy", "seed", "slav", "total_migrations",
                      "migration_energy_j", "dc_energy_j", "bfd_baseline_pms"):
            assert getattr(loaded, field) == getattr(sample_run(), field)

    def test_series_preserved_as_arrays(self, tmp_path):
        path = tmp_path / "runs.json"
        save_results([sample_run()], path)
        (loaded,) = load_results(path)
        np.testing.assert_array_equal(loaded.series["active"],
                                      [10.0, 8.0, 6.0, 5.0, 4.0])
        assert isinstance(loaded.series["active"], np.ndarray)

    def test_multiple_runs_order_preserved(self, tmp_path):
        path = tmp_path / "runs.json"
        save_results([sample_run(seed=i) for i in range(4)], path)
        loaded = load_results(path)
        assert [r.seed for r in loaded] == [0, 1, 2, 3]

    def test_loaded_runs_aggregate(self, tmp_path):
        path = tmp_path / "runs.json"
        save_results([sample_run(seed=i) for i in range(3)], path)
        agg = aggregate_runs(load_results(path), "slav")
        assert agg.summary.median == 0.001

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": 99, "runs": []}))
        with pytest.raises(ValueError, match="archive"):
            load_results(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        payload = {"format": 1, "runs": [{"policy": "X", "n_pms": 1,
                                          "n_vms": 1, "rounds": 1, "seed": 0,
                                          "hacker": True}]}
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="unknown"):
            load_results(path)


class TestSweepRoundTrip:
    def test_real_sweep_round_trips(self, tmp_path):
        scenario = Scenario(
            n_pms=8, ratio=2, rounds=6, warmup_rounds=6, repetitions=1,
            trace_params=GoogleTraceParams(rounds_per_day=6),
        )
        sweep = run_sweep([scenario], policies=("GRMP",))
        path = tmp_path / "sweep.json"
        save_sweep(sweep, path)
        loaded = load_sweep(path)
        assert loaded.policies == ("GRMP",)
        assert loaded.scenarios == [scenario]
        orig = sweep.of(scenario, "GRMP")[0]
        back = loaded.of(scenario, "GRMP")[0]
        assert back.slav == orig.slav
        np.testing.assert_array_equal(back.series["active"],
                                      orig.series["active"])

    def test_figure_drivers_work_on_loaded_sweep(self, tmp_path):
        from repro.experiments.figures import figure6_overload_fraction

        scenario = Scenario(
            n_pms=8, ratio=2, rounds=6, warmup_rounds=6, repetitions=1,
            trace_params=GoogleTraceParams(rounds_per_day=6),
        )
        sweep = run_sweep([scenario], policies=("GRMP",))
        path = tmp_path / "sweep.json"
        save_sweep(sweep, path)
        rows = figure6_overload_fraction(load_sweep(path))
        assert rows and rows[0]["policy"] == "GRMP"

    def test_malformed_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        payload = {"format": 1, "scenarios": [], "policies": [],
                   "runs": {"nokey": []}}
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="malformed"):
            load_sweep(path)
