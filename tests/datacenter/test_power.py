"""Tests for repro.datacenter.power — the linear power model."""

import pytest

from repro.datacenter.power import LinearPowerModel


class TestLinearPowerModel:
    def test_idle_power(self):
        model = LinearPowerModel()
        assert model.power(0.0) == pytest.approx(93.7)

    def test_max_power(self):
        model = LinearPowerModel()
        assert model.power(1.0) == pytest.approx(135.0)

    def test_linear_midpoint(self):
        model = LinearPowerModel(idle_watts=100.0, max_watts=200.0)
        assert model.power(0.5) == pytest.approx(150.0)

    def test_monotonic(self):
        model = LinearPowerModel()
        powers = [model.power(u / 10) for u in range(11)]
        assert powers == sorted(powers)

    def test_rejects_utilization_above_one(self):
        with pytest.raises(ValueError):
            LinearPowerModel().power(1.2)

    def test_rejects_negative_utilization(self):
        with pytest.raises(ValueError):
            LinearPowerModel().power(-0.1)

    def test_rejects_max_below_idle(self):
        with pytest.raises(ValueError):
            LinearPowerModel(idle_watts=150.0, max_watts=100.0)

    def test_rejects_negative_watts(self):
        with pytest.raises(ValueError):
            LinearPowerModel(idle_watts=-1.0)
