"""Tests for repro.datacenter.migration — time/energy/SLA cost model."""

import numpy as np
import pytest

from repro.datacenter.columnar import ColumnarStore
from repro.datacenter.migration import MigrationModel, MigrationRecord
from repro.datacenter.power import LinearPowerModel

from tests.conftest import make_vm


def make_pms():
    """Two PMs of one store; its 16 VMs (``src.store``) start unplaced."""
    return ColumnarStore(2, 16).pms


class TestDuration:
    def test_memory_drives_duration(self):
        model = MigrationModel()
        src, dst = make_pms()
        small = make_vm(1, mem=0.2)
        large = make_vm(2, mem=0.9)
        assert model.duration_s(large, src, dst) > model.duration_s(small, src, dst)

    def test_duration_formula(self):
        # mem_used = 0.5 * 613 MB; bandwidth = 10_000 Mb/s * 0.5 shared.
        model = MigrationModel(bandwidth_fraction=0.5)
        src, dst = make_pms()
        vm = make_vm(1, mem=0.5)
        expected = (0.5 * 613 * 8.0) / (10_000 * 0.5)
        assert model.duration_s(vm, src, dst) == pytest.approx(expected)

    def test_working_set_floor(self):
        # An idle guest still moves at least 10% of its allocation.
        model = MigrationModel()
        src, dst = make_pms()
        idle = make_vm(1, mem=0.0)
        floor = make_vm(2, mem=0.1)
        assert model.duration_s(idle, src, dst) == pytest.approx(
            model.duration_s(floor, src, dst)
        )

    def test_zero_bandwidth_fraction_rejected(self):
        with pytest.raises(ValueError):
            MigrationModel(bandwidth_fraction=0.0)


class TestEnergy:
    def test_energy_positive(self):
        model = MigrationModel()
        src, dst = make_pms()
        assert model.energy_j(make_vm(1), src, dst) > 0.0

    def test_paper_equation_3(self):
        # E = ((P_src^lm - P_src^idle) + (P_dst^lm - P_dst^idle)) * tau
        power = LinearPowerModel(idle_watts=100.0, max_watts=200.0)
        model = MigrationModel(power_model=power, migration_cpu_overhead=0.1)
        src, dst = make_pms()  # both idle: u=0 -> u_lm=0.1
        vm = make_vm(1, mem=0.5)
        tau = model.duration_s(vm, src, dst)
        delta = power.power(0.1) - 100.0  # 10 W per endpoint
        assert model.energy_j(vm, src, dst) == pytest.approx(2 * delta * tau)

    def test_busier_endpoints_cost_more(self):
        model = MigrationModel()
        src, dst = make_pms()
        vm = make_vm(1)
        e_idle = model.energy_j(vm, src, dst)
        for i in range(3, 7):
            src.add_vm(make_vm(i, cpu=0.9, store=src.store))
        e_busy = model.energy_j(vm, src, dst)
        assert e_busy > e_idle

    def test_energy_saturates_at_full_cpu(self):
        # u + overhead clamps at 1.0; no negative or exploding power.
        model = MigrationModel()
        src, dst = make_pms()
        for i in range(3, 12):
            src.add_vm(make_vm(i, cpu=1.0, store=src.store))
        vm = make_vm(1)
        assert np.isfinite(model.energy_j(vm, src, dst))


class TestDegradation:
    def test_ten_percent_of_cpu_work(self):
        model = MigrationModel(degradation_fraction=0.1)
        vm = make_vm(1, cpu=0.5)  # 250 MIPS
        assert model.degradation_mips_s(vm, 4.0) == pytest.approx(0.1 * 250 * 4.0)

    def test_zero_duration_zero_degradation(self):
        model = MigrationModel()
        assert model.degradation_mips_s(make_vm(1), 0.0) == 0.0


class TestCostOf:
    def test_record_fields(self):
        model = MigrationModel()
        src, dst = make_pms()
        vm = make_vm(3)
        record = model.cost_of(17, vm, src, dst)
        assert isinstance(record, MigrationRecord)
        assert record.round_index == 17
        assert record.vm_id == 3
        assert record.src_pm == 0 and record.dst_pm == 1
        assert record.duration_s > 0
        assert record.energy_j > 0
        assert record.degraded_mips_s >= 0

    def test_cost_of_does_not_move_vm(self):
        model = MigrationModel()
        src, dst = make_pms()
        vm = make_vm(3, store=src.store)
        src.add_vm(vm)
        model.cost_of(0, vm, src, dst)
        assert vm.host_id == 0 and src.has_vm(3) and not dst.has_vm(3)

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ValueError):
            MigrationModel(migration_cpu_overhead=1.5)
        with pytest.raises(ValueError):
            MigrationModel(degradation_fraction=-0.1)
