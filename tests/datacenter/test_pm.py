"""Tests for repro.datacenter.pm — PM views of a small store.

A VM is hosted through ``make_vm(..., store=pm.store)``: views of one
store are the only machines that can meet.
"""

import numpy as np
import pytest

from repro.datacenter.columnar import ColumnarStore
from repro.datacenter.resources import MachineSpec

from tests.conftest import make_pm, make_vm


class TestVmSet:
    def test_add_and_remove(self):
        pm = make_pm()
        vm = make_vm(1, store=pm.store)
        pm.add_vm(vm)
        assert pm.has_vm(1) and vm.host_id == 0 and pm.vm_count == 1
        out = pm.remove_vm(1)
        assert out is vm and vm.host_id is None and pm.is_empty

    def test_double_add_rejected(self):
        pm = make_pm()
        vm = make_vm(1, store=pm.store)
        pm.add_vm(vm)
        with pytest.raises(ValueError):
            pm.add_vm(vm)

    def test_add_while_hosted_elsewhere_rejected(self):
        pm_a, pm_b = ColumnarStore(2, 4).pms
        vm = make_vm(1, store=pm_a.store)
        pm_a.add_vm(vm)
        with pytest.raises(ValueError):
            pm_b.add_vm(vm)

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            make_pm().remove_vm(9)


class TestUtilization:
    def test_empty_pm_zero_utilization(self):
        pm = make_pm()
        np.testing.assert_array_equal(pm.current_utilization(), [0.0, 0.0])
        assert pm.total_utilization() == 0.0

    def test_aggregates_vm_demands(self):
        pm = make_pm()
        pm.add_vm(make_vm(1, cpu=0.5, mem=0.4, store=pm.store))
        pm.add_vm(make_vm(2, cpu=0.3, mem=0.2, store=pm.store))
        u = pm.current_utilization()
        assert u[0] == pytest.approx((0.5 + 0.3) * 500 / 2660)
        assert u[1] == pytest.approx((0.4 + 0.2) * 613 / 4096)

    def test_capped_at_one(self):
        pm = make_pm(spec=MachineSpec(cpu_mips=100.0, mem_mb=100.0, bandwidth_mbps=1000.0))
        pm.add_vm(make_vm(1, cpu=1.0, mem=1.0, store=pm.store))  # 500 MIPS demand on 100 MIPS
        np.testing.assert_array_equal(pm.current_utilization(), [1.0, 1.0])
        u_raw = pm.utilization(cap=False)
        assert u_raw[0] == pytest.approx(5.0)

    def test_average_vs_current(self):
        pm = make_pm()
        vm = make_vm(1, cpu=0.2, mem=0.2, store=pm.store)
        vm.observe_demand(np.array([0.8, 0.8]), 120.0)  # avg now 0.5
        pm.add_vm(vm)
        assert pm.average_utilization()[0] == pytest.approx(0.5 * 500 / 2660)
        assert pm.current_utilization()[0] == pytest.approx(0.8 * 500 / 2660)

    def test_cpu_utilization_scalar(self):
        pm = make_pm()
        pm.add_vm(make_vm(1, cpu=1.0, store=pm.store))
        assert pm.cpu_utilization() == pytest.approx(500 / 2660)


class TestOverloadAndCapacity:
    def small_pm(self):
        # Capacity fits exactly one fully loaded micro VM per resource.
        return make_pm(spec=MachineSpec(cpu_mips=500.0, mem_mb=613.0, bandwidth_mbps=1000.0))

    def test_overloaded_when_any_resource_at_capacity(self):
        pm = self.small_pm()
        pm.add_vm(make_vm(1, cpu=1.0, mem=0.1, store=pm.store))  # CPU at 100%, memory low
        assert pm.is_overloaded()

    def test_not_overloaded_below_capacity(self):
        pm = self.small_pm()
        pm.add_vm(make_vm(1, cpu=0.9, mem=0.9, store=pm.store))
        assert not pm.is_overloaded()

    def test_overload_by_average(self):
        pm = self.small_pm()
        vm = make_vm(1, cpu=1.0, mem=0.1, store=pm.store)
        vm.observe_demand(np.array([0.1, 0.1]), 120.0)  # current drops
        pm.add_vm(vm)
        assert not pm.is_overloaded()  # current 0.1
        assert pm.is_overloaded(use_average=False) is False
        # average = 0.55 -> not overloaded by average either
        assert pm.is_overloaded(use_average=True) is False

    def test_fits_exact_capacity(self):
        pm = self.small_pm()
        assert pm.fits(make_vm(1, cpu=1.0, mem=1.0, store=pm.store))
        pm.add_vm(make_vm(2, cpu=0.5, mem=0.5, store=pm.store))
        assert pm.fits(make_vm(3, cpu=0.5, mem=0.5, store=pm.store))
        assert not pm.fits(make_vm(4, cpu=0.6, mem=0.1, store=pm.store))

    def test_fits_with_headroom(self):
        pm = self.small_pm()
        assert not pm.fits(make_vm(1, cpu=0.95, mem=0.5, store=pm.store), headroom=0.1)
        assert pm.fits(make_vm(2, cpu=0.85, mem=0.5, store=pm.store), headroom=0.1)

    def test_fits_invalid_headroom(self):
        pm = self.small_pm()
        with pytest.raises(ValueError):
            pm.fits(make_vm(1, store=pm.store), headroom=1.0)


class TestSlavoAccounting:
    def test_active_time_accrues(self):
        pm = make_pm()
        pm.account_round(120.0)
        pm.account_round(120.0)
        assert pm.active_seconds == 240.0
        assert pm.saturated_seconds == 0.0

    def test_saturated_time_when_cpu_at_capacity(self):
        pm = make_pm(spec=MachineSpec(cpu_mips=500.0, mem_mb=4096.0, bandwidth_mbps=1000.0))
        pm.add_vm(make_vm(1, cpu=1.0, store=pm.store))
        pm.account_round(120.0)
        assert pm.saturated_seconds == 120.0

    def test_negative_round_rejected(self):
        with pytest.raises(ValueError):
            make_pm().account_round(-1.0)
