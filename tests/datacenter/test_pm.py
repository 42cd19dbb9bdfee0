"""A PM's state on the store, by id: membership, utilisation, overload,
admission and SLAVO time.

Each test builds a small store, places VMs with ``add_member`` and
demand samples with ``observe``, and reads the scalar readers the
policies decide on.
"""

import numpy as np
import pytest

from repro.datacenter.cluster import DataCenter
from repro.datacenter.columnar import ColumnarStore
from repro.datacenter.resources import HP_PROLIANT_ML110_G5, MachineSpec

from tests.conftest import make_constant_trace, make_datacenter, observe


def host(spec: MachineSpec = HP_PROLIANT_ML110_G5, *vms) -> ColumnarStore:
    """PM 0 of a fresh 16-VM store hosting VM ``i + 1`` at the ``i``-th
    ``(cpu, mem)`` of ``vms``; planes current."""
    store = ColumnarStore(1, 16, pm_spec=spec)
    for vm_id, (cpu, mem) in enumerate(vms, start=1):
        observe(store, vm_id, cpu, mem)
        store.add_member(0, vm_id)
    store.ensure_planes()
    return store


class TestVmSet:
    def test_add_and_remove(self):
        store = host()
        store.add_member(0, 1)
        assert store.members[0] == [1] and store.host[1] == 0
        store.remove_member(0, 1)
        assert store.members[0] == [] and store.host[1] == -1

    def test_double_add_rejected(self):
        """Moving a VM onto the PM that hosts it is refused."""
        dc = make_datacenter()
        vm_id = 0
        with pytest.raises(ValueError, match="destination equals source"):
            dc.migrate(vm_id, int(dc.store.host[vm_id]))

    def test_add_while_hosted_elsewhere_rejected(self):
        """A placed data centre cannot be placed again."""
        dc = make_datacenter()
        with pytest.raises(RuntimeError, match="non-empty"):
            dc.apply_placement([0] * dc.n_vms)

    def test_remove_missing_raises(self):
        with pytest.raises(ValueError):
            host().remove_member(0, 9)


class TestUtilization:
    def test_empty_pm_zero_utilization(self):
        store = host()
        assert store.pm_utilization(0) == (0.0, 0.0)
        assert store.pm_total_utilization(0) == 0.0

    def test_aggregates_vm_demands(self):
        cpu, mem = host(HP_PROLIANT_ML110_G5, (0.5, 0.4), (0.3, 0.2)).pm_utilization(0)
        assert cpu == pytest.approx((0.5 + 0.3) * 500 / 2660)
        assert mem == pytest.approx((0.4 + 0.2) * 613 / 4096)

    def test_capped_at_one(self):
        spec = MachineSpec(cpu_mips=100.0, mem_mb=100.0, bandwidth_mbps=1000.0)
        store = host(spec, (1.0, 1.0))  # 500 MIPS demand on 100 MIPS
        assert store.pm_cpu_utilization(0) == 1.0
        assert store.pm_peak_utilization(0) == 1.0
        assert store.pm_total_utilization(0) == 2.0
        assert store.pm_utilization(0)[0] == pytest.approx(5.0)

    def test_average_vs_current(self):
        store = ColumnarStore(1, 2)
        observe(store, 1, 0.2, 0.2)
        observe(store, 1, 0.8, 0.8)  # avg now 0.5
        store.add_member(0, 1)
        assert store.pm_utilization(0)[0] == pytest.approx(0.8 * 500 / 2660)
        assert store.pm_avg_cpu[0] / store.pm_spec.cpu_mips == pytest.approx(0.5 * 500 / 2660)

    def test_cpu_utilization_scalar(self):
        store = host(HP_PROLIANT_ML110_G5, (1.0, 0.4))
        assert store.pm_cpu_utilization(0) == pytest.approx(500 / 2660)


class TestOverloadAndCapacity:
    # Capacity fits exactly one fully loaded micro VM per resource.
    SMALL = MachineSpec(cpu_mips=500.0, mem_mb=613.0, bandwidth_mbps=1000.0)

    def test_overloaded_when_any_resource_at_capacity(self):
        assert host(self.SMALL, (1.0, 0.1)).pm_overloaded(0)  # CPU at 100%, memory low

    def test_not_overloaded_below_capacity(self):
        assert not host(self.SMALL, (0.9, 0.9)).pm_overloaded(0)

    def test_overload_by_average(self):
        store = ColumnarStore(1, 2, pm_spec=self.SMALL)
        observe(store, 1, 1.0, 0.1)
        observe(store, 1, 0.1, 0.1)  # current drops
        store.add_member(0, 1)
        store.ensure_planes()
        assert not store.pm_overloaded(0)  # current 0.1
        # average = 0.55 -> not overloaded by average either
        assert store.pm_avg_cpu[0] < self.SMALL.cpu_mips and store.pm_avg_mem[0] < self.SMALL.mem_mb

    def test_fits_exact_capacity(self):
        store = host(self.SMALL)
        for vm_id, (cpu, mem) in enumerate([(1.0, 1.0), (0.5, 0.5), (0.5, 0.5), (0.6, 0.1)]):
            observe(store, vm_id + 1, cpu, mem)
        store.ensure_planes()
        assert store.pm_fits(0, 1)
        store.add_member(0, 2)
        assert store.pm_fits(0, 3)
        assert not store.pm_fits(0, 4)


class TestSlavoAccounting:
    def dc(self, spec=HP_PROLIANT_ML110_G5, cpu=0.2) -> DataCenter:
        dc = DataCenter(1, 1, make_constant_trace(1, 4, cpu=cpu, mem=0.1), pm_spec=spec)
        dc.apply_placement([0])
        return dc

    def test_active_time_accrues(self):
        dc = self.dc()
        dc.advance_round()
        dc.advance_round()
        assert dc.pms[0].active_seconds == 240.0
        assert dc.pms[0].saturated_seconds == 0.0

    def test_saturated_time_when_cpu_at_capacity(self):
        dc = self.dc(MachineSpec(cpu_mips=500.0, mem_mb=4096.0, bandwidth_mbps=1000.0), cpu=1.0)
        dc.advance_round()
        assert dc.pms[0].saturated_seconds == 120.0
        np.testing.assert_array_equal(dc.store.pm_saturated_seconds, [120.0])

    def test_negative_round_rejected(self):
        with pytest.raises(ValueError):
            DataCenter(1, 1, make_constant_trace(1, 4, cpu=0.2, mem=0.1), round_seconds=-1.0)
