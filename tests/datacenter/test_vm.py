"""Tests for repro.datacenter.vm — VM views of a small store."""

import numpy as np
import pytest

from repro.datacenter.resources import HP_PROLIANT_ML110_G5
from repro.simulator.observer import check_datacenter_invariants

from tests.conftest import make_datacenter, make_vm


class TestDemandViews:
    def test_current_demand_abs(self):
        vm = make_vm(cpu=0.5, mem=0.4)
        np.testing.assert_allclose(
            vm.current_demand_abs(), [0.5 * 500, 0.4 * 613]
        )

    def test_average_demand_abs(self):
        vm = make_vm(observations=0)
        vm.observe_demand(np.array([0.2, 0.2]), 120.0)
        vm.observe_demand(np.array([0.8, 0.4]), 120.0)
        np.testing.assert_allclose(
            vm.average_demand_abs(), [0.5 * 500, 0.3 * 613]
        )

    def test_demand_on_host_scale(self):
        vm = make_vm(cpu=1.0, mem=1.0)
        frac = vm.demand_on(HP_PROLIANT_ML110_G5)
        assert frac[0] == pytest.approx(500 / 2660)
        assert frac[1] == pytest.approx(613 / 4096)

    def test_demand_on_average(self):
        vm = make_vm(observations=0)
        vm.observe_demand(np.array([0.0, 0.0]), 120.0)
        vm.observe_demand(np.array([1.0, 1.0]), 120.0)
        frac = vm.demand_on(HP_PROLIANT_ML110_G5, use_average=True)
        assert frac[0] == pytest.approx(0.5 * 500 / 2660)

    def test_cpu_demand_mips(self):
        vm = make_vm(cpu=0.6)
        assert vm.cpu_demand_mips() == pytest.approx(300.0)


class TestSlaBookkeeping:
    def test_requested_cpu_accrues(self):
        vm = make_vm(observations=0)
        vm.observe_demand(np.array([0.5, 0.1]), 120.0)
        vm.observe_demand(np.array([0.5, 0.1]), 120.0)
        assert vm.cpu_requested_mips_s == pytest.approx(2 * 250 * 120)

    def test_migration_degradation_accrues(self):
        vm = make_vm()
        vm.record_migration_degradation(100.0)
        vm.record_migration_degradation(50.0)
        assert vm.cpu_degraded_mips_s == 150.0
        assert vm.migrations == 2

    def test_negative_degradation_rejected(self):
        with pytest.raises(ValueError):
            make_vm().record_migration_degradation(-1.0)


class TestIdentity:
    def test_starts_unplaced(self):
        assert make_vm(observations=0).host_id is None

    def test_repr_mentions_id(self):
        assert "7" in repr(make_vm(7, observations=0))

    def test_host_id_is_read_only(self):
        """Placement goes through the PMs, which keep the membership lists
        and the host column coherent; the column alone cannot be set."""
        dc = make_datacenter()
        before = dc.vm(0).host_id
        with pytest.raises(AttributeError):
            dc.vm(0).host_id = 1
        assert dc.vm(0).host_id == before
        check_datacenter_invariants(dc)
