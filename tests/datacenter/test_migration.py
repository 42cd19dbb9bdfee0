"""Tests for repro.datacenter.migration — time/energy/SLA cost model,
priced by id on a store with ``MigrationModel.cost_by_id``."""

import numpy as np
import pytest

from repro.datacenter.columnar import ColumnarStore
from repro.datacenter.migration import MigrationModel, MigrationRecord
from repro.datacenter.power import LinearPowerModel

from tests.conftest import observe


def make_store(*vms) -> ColumnarStore:
    """Two PMs and 16 VMs; VM ``i + 1`` observed at the ``i``-th
    ``(cpu, mem)`` of ``vms`` (the rest idle), all unplaced."""
    store = ColumnarStore(2, 16)
    for vm_id, (cpu, mem) in enumerate(vms, start=1):
        observe(store, vm_id, cpu, mem)
    return store


def price(model: MigrationModel, store: ColumnarStore, vm_id: int) -> MigrationRecord:
    """VM ``vm_id`` moving from PM 0 to PM 1, in round 0."""
    return model.cost_by_id(0, store, vm_id, 0, 1)


class TestDuration:
    def test_memory_drives_duration(self):
        model = MigrationModel()
        store = make_store((0.5, 0.2), (0.5, 0.9))
        assert price(model, store, 2).duration_s > price(model, store, 1).duration_s

    def test_duration_formula(self):
        # mem_used = 0.5 * 613 MB; bandwidth = 10_000 Mb/s * 0.5 shared.
        model = MigrationModel(bandwidth_fraction=0.5)
        expected = (0.5 * 613 * 8.0) / (10_000 * 0.5)
        assert price(model, make_store((0.5, 0.5)), 1).duration_s == pytest.approx(expected)

    def test_working_set_floor(self):
        # An idle guest still moves at least 10% of its allocation.
        model = MigrationModel()
        store = make_store((0.5, 0.0), (0.5, 0.1))
        assert price(model, store, 1).duration_s == pytest.approx(price(model, store, 2).duration_s)

    def test_zero_bandwidth_fraction_rejected(self):
        with pytest.raises(ValueError):
            MigrationModel(bandwidth_fraction=0.0)


class TestEnergy:
    def test_energy_positive(self):
        assert price(MigrationModel(), make_store((0.5, 0.4)), 1).energy_j > 0.0

    def test_paper_equation_3(self):
        # E = ((P_src^lm - P_src^idle) + (P_dst^lm - P_dst^idle)) * tau
        power = LinearPowerModel(idle_watts=100.0, max_watts=200.0)
        model = MigrationModel(power_model=power, migration_cpu_overhead=0.1)
        record = price(model, make_store((0.5, 0.5)), 1)  # both PMs idle: u=0 -> u_lm=0.1
        delta = power.power(0.1) - 100.0  # 10 W per endpoint
        assert record.energy_j == pytest.approx(2 * delta * record.duration_s)

    def test_busier_endpoints_cost_more(self):
        model = MigrationModel()
        store = make_store((0.5, 0.4), *[(0.9, 0.4)] * 6)
        e_idle = price(model, store, 1).energy_j
        for vm_id in range(3, 7):
            store.add_member(0, vm_id)
        assert price(model, store, 1).energy_j > e_idle

    def test_energy_saturates_at_full_cpu(self):
        # u + overhead clamps at 1.0; no negative or exploding power.
        store = make_store((0.5, 0.4), *[(1.0, 0.4)] * 11)
        for vm_id in range(3, 12):
            store.add_member(0, vm_id)
        assert np.isfinite(price(MigrationModel(), store, 1).energy_j)


class TestDegradation:
    def test_ten_percent_of_cpu_work(self):
        model = MigrationModel(degradation_fraction=0.1)
        record = price(model, make_store((0.5, 0.4)), 1)  # 250 MIPS
        assert record.degraded_mips_s == pytest.approx(0.1 * 250 * record.duration_s)

    def test_zero_duration_zero_degradation(self):
        """A VM doing no CPU work during the move loses none."""
        assert price(MigrationModel(), make_store((0.0, 0.4)), 1).degraded_mips_s == 0.0


class TestCostOf:
    def test_record_fields(self):
        record = MigrationModel().cost_by_id(17, make_store((0.5, 0.4), (0.5, 0.4), (0.5, 0.4)), 3, 0, 1)
        assert isinstance(record, MigrationRecord)
        assert record.round_index == 17
        assert record.vm_id == 3
        assert record.src_pm == 0 and record.dst_pm == 1
        assert record.duration_s > 0
        assert record.energy_j > 0
        assert record.degraded_mips_s >= 0

    def test_cost_of_does_not_move_vm(self):
        store = make_store((0.5, 0.4), (0.5, 0.4), (0.5, 0.4))
        store.add_member(0, 3)
        price(MigrationModel(), store, 3)
        assert store.host[3] == 0 and store.members == [[3], []]

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ValueError):
            MigrationModel(migration_cpu_overhead=1.5)
        with pytest.raises(ValueError):
            MigrationModel(degradation_fraction=-0.1)
