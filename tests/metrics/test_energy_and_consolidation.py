"""Tests for repro.metrics.energy."""

import numpy as np
import pytest

from repro.datacenter.cluster import DataCenter
from repro.datacenter.migration import MigrationRecord
from repro.datacenter.power import LinearPowerModel
from repro.metrics.energy import datacenter_power_w, migration_energy_j

from tests.conftest import make_constant_trace, make_datacenter


def record(energy):
    return MigrationRecord(0, 0, 0, 1, 1.0, energy, 0.0)


class TestMigrationEnergy:
    def test_sum(self):
        assert migration_energy_j([record(10.0), record(5.5)]) == 15.5

    def test_empty(self):
        assert migration_energy_j([]) == 0.0


class TestDatacenterPower:
    def test_sleeping_pms_draw_nothing(self):
        dc = make_datacenter(n_pms=4, n_vms=8)
        full = datacenter_power_w(dc)
        dc.pms[0].asleep = True
        assert datacenter_power_w(dc) < full

    def test_idle_floor(self):
        trace = make_constant_trace(4, 4, cpu=0.0, mem=0.0)
        dc = DataCenter(4, 4, trace)
        dc.place_randomly(np.random.default_rng(0))
        dc.advance_round()
        model = LinearPowerModel(idle_watts=100.0, max_watts=200.0)
        assert datacenter_power_w(dc, model) == pytest.approx(400.0)
