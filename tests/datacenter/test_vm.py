"""A VM's state on the store, by id: demand planes, SLALM accounting and
the read-only SLA record ``DataCenter.vms`` builds."""

import numpy as np
import pytest

from repro.datacenter.cluster import DataCenter
from repro.datacenter.columnar import ColumnarStore
from repro.simulator.observer import check_datacenter_invariants

from tests.conftest import make_constant_trace, make_datacenter, observe


def vm_store(*samples) -> ColumnarStore:
    """A one-PM store whose VM 0 saw ``samples`` in turn; planes current."""
    store = ColumnarStore(1, 1)
    for cpu, mem in samples:
        observe(store, 0, cpu, mem)
    store.ensure_planes()
    return store


class TestDemandViews:
    def test_current_demand_abs(self):
        store = vm_store((0.5, 0.4))
        np.testing.assert_allclose([store.vm_cur_cpu[0], store.vm_cur_mem[0]], [0.5 * 500, 0.4 * 613])

    def test_average_demand_abs(self):
        store = vm_store((0.2, 0.2), (0.8, 0.4))
        np.testing.assert_allclose([store.vm_avg_cpu[0], store.vm_avg_mem[0]], [0.5 * 500, 0.3 * 613])

    def test_demand_on_host_scale(self):
        """Alone on a PM, a VM's demand is the PM's utilisation."""
        store = vm_store((1.0, 1.0))
        store.add_member(0, 0)
        cpu, mem = store.pm_utilization(0)
        assert cpu == pytest.approx(500 / 2660)
        assert mem == pytest.approx(613 / 4096)

    def test_demand_on_average(self):
        store = vm_store((0.0, 0.0), (1.0, 1.0))
        store.add_member(0, 0)
        store.ensure_planes()
        assert store.pm_avg_cpu[0] / store.pm_spec.cpu_mips == pytest.approx(0.5 * 500 / 2660)

    def test_cpu_demand_mips(self):
        assert vm_store((0.6, 0.4)).vm_cur_cpu[0] == pytest.approx(300.0)


class TestSlaBookkeeping:
    def test_requested_cpu_accrues(self):
        dc = DataCenter(1, 1, make_constant_trace(1, 4, cpu=0.5, mem=0.1))
        dc.apply_placement([0])
        dc.advance_round()
        dc.advance_round()
        assert dc.vms[0].cpu_requested_mips_s == pytest.approx(2 * 250 * 120)

    def test_migration_degradation_accrues(self):
        dc = make_datacenter(n_pms=2, n_vms=4)
        records = [dc.migrate(0, 1 - int(dc.store.host[0])) for _ in range(2)]
        assert dc.vms[0].cpu_degraded_mips_s == records[0].degraded_mips_s + records[1].degraded_mips_s
        assert dc.store.vm_migrations[0] == 2


class TestIdentity:
    def test_starts_unplaced(self):
        assert ColumnarStore(1, 1).host[0] == -1

    def test_repr_mentions_id(self):
        assert "7" in repr(make_datacenter().vms[7])

    def test_host_id_is_read_only(self):
        """The SLA records read the store and write nothing: placement and
        accounting change through ``migrate`` and the round update."""
        dc = make_datacenter()
        vm, pm = dc.vms[0], dc.pms[0]
        with pytest.raises(AttributeError):
            vm.host_id = 1
        with pytest.raises(AttributeError):
            vm.cpu_degraded_mips_s = 1.0
        with pytest.raises(AttributeError):
            pm.saturated_seconds = 1.0
        check_datacenter_invariants(dc)
