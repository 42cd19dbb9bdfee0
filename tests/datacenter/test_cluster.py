"""Tests for repro.datacenter.cluster — the DataCenter."""

import numpy as np
import pytest

from repro.datacenter.cluster import DataCenter

from tests.conftest import make_constant_trace, make_datacenter, make_trace


class TestConstruction:
    def test_populations(self):
        dc = make_datacenter(n_pms=5, n_vms=12, advance=False)
        assert dc.n_pms == 5 and dc.n_vms == 12

    def test_trace_too_small_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            DataCenter(5, 100, make_trace(10, 5))

    def test_invalid_sizes_rejected(self):
        trace = make_trace(10, 5)
        with pytest.raises(ValueError):
            DataCenter(0, 5, trace)
        with pytest.raises(ValueError):
            DataCenter(5, 0, trace)

    def test_lookup_errors(self):
        dc = make_datacenter(advance=False)
        with pytest.raises(KeyError, match="no PM 999"):
            dc.migrate(0, 999)
        with pytest.raises(KeyError, match="no VM 999"):
            dc.migrate(999, 0)


class TestPlacement:
    def test_random_placement_places_all(self):
        dc = make_datacenter(advance=False)
        assert np.all(dc.store.host >= 0)
        assert sum(map(len, dc.store.members)) == dc.n_vms

    def test_placement_array_roundtrip(self):
        dc = make_datacenter(advance=False)
        mapping = dc.placement()
        dc2 = DataCenter(dc.n_pms, dc.n_vms, dc.trace)
        dc2.apply_placement(mapping)
        np.testing.assert_array_equal(dc2.placement(), mapping)

    def test_same_seed_same_placement(self):
        a = make_datacenter(seed=3, advance=False).placement()
        b = make_datacenter(seed=3, advance=False).placement()
        np.testing.assert_array_equal(a, b)

    def test_different_seed_different_placement(self):
        a = make_datacenter(seed=3, advance=False).placement()
        b = make_datacenter(seed=4, advance=False).placement()
        assert not np.array_equal(a, b)

    def test_double_random_placement_rejected(self):
        dc = make_datacenter(advance=False)
        with pytest.raises(RuntimeError):
            dc.place_randomly(np.random.default_rng(0))

    def test_apply_placement_wrong_length(self):
        dc = DataCenter(5, 12, make_trace(12, 5))
        with pytest.raises(ValueError):
            dc.apply_placement([0, 1])


class TestRounds:
    def test_advance_updates_demands(self):
        dc = make_datacenter(advance=False)
        assert dc.advance_round() == 0
        assert np.all(dc.store.monitor_count == 1)
        dc.advance_round()
        assert np.all(dc.store.monitor_count == 2)

    def test_advance_accounts_active_time(self):
        dc = make_datacenter(advance=False)
        dc.advance_round()
        assert all(pm.active_seconds == 120.0 for pm in dc.pms)

    def test_sleeping_pm_accrues_no_time(self):
        dc = make_datacenter(advance=False)
        dc.store.pm_asleep[0] = True
        dc.advance_round()
        assert dc.pms[0].active_seconds == 0.0

    def test_demands_follow_trace(self):
        trace = make_constant_trace(6, 4, cpu=0.42, mem=0.17)
        dc = DataCenter(3, 6, trace)
        dc.place_randomly(np.random.default_rng(0))
        dc.advance_round()
        np.testing.assert_allclose(dc.store.cur, [[0.42, 0.17]] * 6)


class TestMigrate:
    def test_migrate_moves_and_records(self):
        dc = make_datacenter()
        src = int(dc.store.host[0])
        dst = (src + 1) % dc.n_pms
        record = dc.migrate(0, dst)
        assert dc.store.host[0] == dst
        assert 0 not in dc.store.members[src]
        assert dc.store.members[dst][-1] == 0
        assert dc.migration_count() == 1
        assert record.src_pm == src and record.dst_pm == dst

    def test_migrate_accrues_vm_degradation(self):
        dc = make_datacenter()
        dc.migrate(0, (int(dc.store.host[0]) + 1) % dc.n_pms)
        assert dc.store.vm_migrations[0] == 1
        assert dc.vms[0].cpu_degraded_mips_s >= 0.0

    def test_migrate_to_source_rejected(self):
        dc = make_datacenter()
        with pytest.raises(ValueError):
            dc.migrate(0, int(dc.store.host[0]))

    def test_migrate_to_sleeping_rejected(self):
        dc = make_datacenter()
        dst = (int(dc.store.host[0]) + 1) % dc.n_pms
        dc.store.pm_asleep[dst] = True
        with pytest.raises(RuntimeError):
            dc.migrate(0, dst)

    def test_energy_totals_accumulate(self):
        dc = make_datacenter()
        for vm_id in range(3):
            dc.migrate(vm_id, (int(dc.store.host[vm_id]) + 1) % dc.n_pms)
        assert dc.total_migration_energy_j() == pytest.approx(
            sum(m.energy_j for m in dc.migrations)
        )


class TestAggregates:
    def test_active_count(self):
        dc = make_datacenter()
        assert dc.active_count() == dc.n_pms
        dc.store.pm_asleep[0] = True
        assert dc.active_count() == dc.n_pms - 1
        assert np.count_nonzero(dc.awake_mask()) == dc.n_pms - 1

    def test_overloaded_count_excludes_sleeping(self):
        trace = make_constant_trace(20, 4, cpu=1.0, mem=0.1)
        dc = DataCenter(2, 20, trace)
        dc.apply_placement([0] * 20)  # all on PM 0 -> overloaded
        dc.advance_round()
        assert dc.overloaded_count() == 1
        dc.store.pm_asleep[0] = True  # hypothetically
        assert dc.overloaded_count() == 0

    def test_utilization_matrix_shape_and_sleep(self):
        dc = make_datacenter()
        dc.store.pm_asleep[2] = True
        matrix = dc.utilization_matrix()
        assert matrix.shape == (dc.n_pms, 2)
        np.testing.assert_array_equal(matrix[2], [0.0, 0.0])

    def test_reset_accounting(self):
        dc = make_datacenter()
        dc.migrate(0, (int(dc.store.host[0]) + 1) % dc.n_pms)
        dc.advance_round()
        placement = dc.placement()
        dc.reset_accounting()
        assert dc.migration_count() == 0
        assert all(pm.active_seconds == 0.0 for pm in dc.pms)
        assert all(v.cpu_requested_mips_s == 0.0 for v in dc.vms)
        assert not dc.store.vm_migrations.any()
        # Placement and demand state untouched.
        np.testing.assert_array_equal(dc.placement(), placement)
        assert np.all(dc.store.monitor_count == 2)
