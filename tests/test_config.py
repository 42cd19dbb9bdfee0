"""Tests for repro.config — scenario JSON round-tripping."""

import json

import pytest

from repro.config import scenario_from_dict, scenario_to_dict
from repro.experiments.scenarios import Scenario, ShardConfig, scaled_grid
from repro.traces.google import GoogleTraceParams


class TestDictRoundTrip:
    def test_plain_scenario(self):
        sc = Scenario(n_pms=50, ratio=3, rounds=100, warmup_rounds=80)
        assert scenario_from_dict(scenario_to_dict(sc)) == sc

    def test_with_trace_params(self):
        sc = Scenario(
            n_pms=50, ratio=3,
            trace_params=GoogleTraceParams(rounds_per_day=100,
                                           diurnal_amplitude=(0.1, 0.2)),
        )
        restored = scenario_from_dict(scenario_to_dict(sc))
        assert restored == sc
        assert restored.trace_params.diurnal_amplitude == (0.1, 0.2)

    def test_dict_is_json_safe(self):
        sc = scaled_grid(sizes=(20,), ratios=(2,))[0]
        json.dumps(scenario_to_dict(sc))  # must not raise

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario_from_dict({"n_pms": 10, "ratio": 2, "bogus": 1})

    def test_unknown_trace_param_rejected(self):
        with pytest.raises(ValueError, match="trace_params"):
            scenario_from_dict(
                {"n_pms": 10, "ratio": 2, "trace_params": {"bogus": 1}}
            )

    def test_with_shard_layout(self):
        sc = Scenario(n_pms=50, ratio=3, sharding=ShardConfig(n_shards=4, wan_factor=0.5))
        data = json.loads(json.dumps(scenario_to_dict(sc)))
        assert data["sharding"] == {"n_shards": 4, "wan_factor": 0.5}
        assert scenario_from_dict(data) == sc
        # An archive from before the field restores unsharded.
        del data["sharding"]
        assert scenario_from_dict(data).sharding is None

    def test_unknown_sharding_field_rejected(self):
        with pytest.raises(ValueError, match="unknown sharding fields"):
            scenario_from_dict(
                {"n_pms": 10, "ratio": 2, "sharding": {"n_shards": 2, "bogus": 1}}
            )
