"""Tests for repro.metrics.sla — SLAVO, SLALM, SLAV."""

import numpy as np
import pytest

from repro.datacenter.cluster import DataCenter
from repro.metrics.sla import datacenter_slalm, datacenter_slavo, slalm, slav, slavo
from repro.traces.base import ArrayTrace
from tests.conftest import make_pm, make_vm
from tests.datacenter._reference_datacenter import ReferenceDataCenter


def pm_with(active=1000.0, saturated=0.0, pm_id=0):
    pm = make_pm(pm_id)
    pm.active_seconds = active
    pm.saturated_seconds = saturated
    return pm


def vm_with(requested=1000.0, degraded=0.0, vm_id=0):
    vm = make_vm(vm_id, observations=0)
    vm.cpu_requested_mips_s = requested
    vm.cpu_degraded_mips_s = degraded
    return vm


class TestSlavo:
    def test_no_saturation_zero(self):
        assert slavo([pm_with(), pm_with(pm_id=1)]) == 0.0

    def test_paper_formula(self):
        # (1/N) * sum(Ts/Ta): (0.5 + 0.25)/2.
        pms = [pm_with(1000, 500), pm_with(2000, 500, pm_id=1)]
        assert slavo(pms) == pytest.approx((0.5 + 0.25) / 2)

    def test_never_active_pm_contributes_zero(self):
        pms = [pm_with(1000, 500), pm_with(0, 0, pm_id=1)]
        assert slavo(pms) == pytest.approx(0.25)

    def test_fully_saturated(self):
        assert slavo([pm_with(100, 100)]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            slavo([])


class TestSlalm:
    def test_no_migrations_zero(self):
        assert slalm([vm_with(), vm_with(vm_id=1)]) == 0.0

    def test_paper_formula(self):
        vms = [vm_with(1000, 10), vm_with(2000, 40, vm_id=1)]
        assert slalm(vms) == pytest.approx((0.01 + 0.02) / 2)

    def test_zero_request_contributes_zero(self):
        vms = [vm_with(0, 0), vm_with(1000, 100, vm_id=1)]
        assert slalm(vms) == pytest.approx(0.05)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            slalm([])


class TestSlav:
    def test_product(self):
        pms = [pm_with(1000, 100)]
        vms = [vm_with(1000, 50)]
        assert slav(pms, vms) == pytest.approx(0.1 * 0.05)

    def test_zero_when_either_factor_zero(self):
        assert slav([pm_with()], [vm_with(1000, 100)]) == 0.0
        assert slav([pm_with(1000, 100)], [vm_with()]) == 0.0


class TestDatacenterSla:
    """``datacenter_slavo`` / ``datacenter_slalm`` reduce the store's
    columns; the answers must be the per-object functions' bit for bit —
    over the same store's views and over the tests-only per-object layout
    (``_reference_datacenter.py``, the "object backend" until PR 18) —
    with never-active PMs, idle VMs and migration degradation present."""

    @staticmethod
    def history(seed):
        """Twin data centres through the same sleeps, rounds and migrations."""
        from tests.conftest import make_trace

        rng = np.random.default_rng(seed)
        n_pms, n_vms = 9, 30
        data = make_trace(n_vms, 12, seed).data.copy()
        data[..., 0] = 0.5 + data[..., 0] / 2  # busy enough to saturate hosts
        data[:3] = 0.0  # VMs that never request CPU
        trace = ArrayTrace(data)
        twins = [ReferenceDataCenter(n_pms, n_vms, trace), DataCenter(n_pms, n_vms, trace)]
        # Crowded hosts saturate; the last two PMs stay empty...
        hosts = rng.integers(0, 2, size=n_vms)
        for dc in twins:
            dc.apply_placement(hosts)
            dc.pm(n_pms - 1).asleep = dc.pm(n_pms - 2).asleep = True  # ...and never active
        for _ in range(10):
            vm_id, dst = int(rng.integers(n_vms)), int(rng.integers(n_pms - 2))
            for dc in twins:
                dc.advance_round()
                if dc.vm(vm_id).host_id != dst:
                    dc.migrate(vm_id, dst)
        return twins

    @pytest.mark.parametrize("seed", range(6))
    def test_columns_equal_per_object_equal_object_backend(self, seed):
        obj, col = self.history(seed)
        assert min(pm.active_seconds for pm in col.pms) == 0.0
        assert max(pm.saturated_seconds for pm in col.pms) > 0.0
        assert min(vm.cpu_requested_mips_s for vm in col.vms) == 0.0
        assert col.migration_count() > 0
        assert datacenter_slavo(col).hex() == slavo(col.pms).hex() == slavo(obj.pms).hex()
        assert datacenter_slalm(col).hex() == slalm(col.vms).hex() == slalm(obj.vms).hex()
        assert datacenter_slalm(col) > 0.0

    def test_run_result_fields_equal_the_per_object_loops(self):
        from repro.experiments.runner import make_policy, run_policy
        from repro.experiments.scenarios import Scenario
        from repro.traces.google import GoogleTraceParams

        scenario = Scenario(
            n_pms=30, ratio=3, rounds=8, warmup_rounds=6, repetitions=1,
            trace_params=GoogleTraceParams(rounds_per_day=7),
        )
        seen = []
        result = run_policy(
            scenario, make_policy("GRMP"), 5, round_hook=lambda r, dc, sim: seen.append(dc)
        )
        dc = seen[-1]
        assert result.total_migrations > 0 and result.final_active < scenario.n_pms
        assert result.slavo.hex() == slavo(dc.pms).hex()
        assert result.slalm.hex() == slalm(dc.vms).hex()
