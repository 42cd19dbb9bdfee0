"""The store builds its VM views on first touch (DESIGN.md §5g).

A run that never asks for a VM object never creates one; everything that
does ask sees the same objects however and whenever it asks; and the
path that writes VM state wholesale (checkpoint restore) works on a
store whose views do not exist yet exactly as on one whose views do.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.base import ConsolidationPolicy
from repro.checkpoint import restore_checkpoint, save_checkpoint
from repro.datacenter.cluster import DataCenter
from repro.experiments.runner import run_policy
from repro.experiments.scenarios import Scenario
from repro.traces.google import GoogleTraceParams
from tests.conftest import make_trace

IDLE_200 = Scenario(
    n_pms=200,
    ratio=3,
    rounds=4,
    warmup_rounds=2,
    repetitions=1,
    trace_params=GoogleTraceParams(rounds_per_day=6),
)


class IdlePolicy(ConsolidationPolicy):
    """Registers nothing: no protocol, no migration, no VM object."""

    name = "Idle"

    def attach(self, dc, sim, streams, warmup_rounds):
        pass


def views_built(dc: DataCenter) -> bool:
    """Whether the VM views exist — read off the private slot, because
    reading ``vms`` is what creates them."""
    return dc.store._vms is not None


def columnar_dc(n_pms: int = 8, n_vms: int = 24, seed: int = 3) -> DataCenter:
    dc = DataCenter(n_pms, n_vms, make_trace(n_vms, 12, seed))
    dc.place_randomly(np.random.default_rng(seed))
    return dc


def column_state(dc: DataCenter) -> dict:
    store = dc.store
    return {
        "placement": [list(row) for row in store.members],
        **{
            name: getattr(store, name).tolist()
            for name in (
                "cur", "avg", "monitor_count", "host", "pm_asleep", "pm_active_seconds",
                "pm_saturated_seconds", "vm_cpu_requested", "vm_cpu_degraded", "vm_migrations",
            )
        },
    }


class TestFirstTouch:
    def test_idle_run_never_builds_them(self):
        seen = []
        result = run_policy(
            IDLE_200, IdlePolicy(), 11, round_hook=lambda r, dc, sim: seen.append(dc)
        )
        dc = seen[-1]
        assert not views_built(dc)
        assert result.bfd_baseline_pms > 0 and result.slalm == 0.0

    def test_sizes_and_columns_do_not_build_them(self):
        dc = columnar_dc()
        dc.advance_round()
        assert dc.n_vms == 24 and dc.store.n_vms == 24
        dc.placement(), dc.vm_demand_matrix(), dc.pm_demand_matrix(), dc.overloaded_count()
        dc.pm(0).vm_count, dc.pm(0).is_overloaded(), dc.reset_accounting()
        assert not views_built(dc)

    def test_every_route_yields_the_same_objects(self):
        dc = columnar_dc()
        vm = dc.vm(5)
        assert views_built(dc)
        assert dc.vms is dc.store.vms and len(dc.vms) == dc.n_vms
        assert all(dc.vm(i) is dc.vms[i] for i in range(dc.n_vms))
        assert vm is dc.vms[5] and vm.vm_id == 5
        host = dc.pm(vm.host_id)
        assert any(v is vm for v in host.vms)
        assert host.remove_vm(5) is vm

    def test_views_built_late_alias_the_live_columns(self):
        dc = columnar_dc()
        dc.advance_round()
        dc.advance_round()
        vm = dc.vms[7]
        assert vm.monitor.count == 2
        assert np.shares_memory(vm.monitor.current, dc.store.cur)
        dc.advance_round()
        np.testing.assert_array_equal(vm.monitor.current, dc.store.cur[7])
        assert vm.cpu_requested_mips_s == dc.store.vm_cpu_requested[7]

    def test_unknown_ids_raise_key_error(self):
        n_vms = 24
        dc = DataCenter(8, n_vms, make_trace(n_vms, 4, 3))
        for bad in (-1, 8, 10**6):
            with pytest.raises(KeyError, match=f"no PM {bad}"):
                dc.pm(bad)
        for bad in (-1, n_vms, 10**6):
            with pytest.raises(KeyError, match=f"no VM {bad}"):
                dc.vm(bad)
        assert dc.pm(7).pm_id == 7 and dc.vm(n_vms - 1).vm_id == n_vms - 1


class TestWholesaleWritersEitherSide:
    """Checkpoint restore, on a store whose views are still unbuilt and
    on one whose views exist."""

    @pytest.mark.parametrize("touch_before_save", [False, True])
    @pytest.mark.parametrize("touch_before_restore_use", [False, True])
    def test_checkpoint_round_trip(self, tmp_path, touch_before_save, touch_before_restore_use):
        path = tmp_path / "run.ckpt.json"
        envs = []

        def hook(r, dc, sim):
            if touch_before_save:
                dc.vms
            envs.append(column_state(dc))

        run_policy(
            IDLE_200, IdlePolicy(), 11, round_hook=hook, checkpoint_every=2, checkpoint_path=path
        )
        restored = restore_checkpoint(path, IdlePolicy())
        assert not views_built(restored.dc)
        if touch_before_restore_use:
            assert restored.dc.vms[3].monitor.count == IDLE_200.total_rounds
        assert column_state(restored.dc) == envs[-1]
        again = tmp_path / "again.ckpt.json"
        save_checkpoint(restored, again)
        assert column_state(restore_checkpoint(again, IdlePolicy()).dc) == envs[-1]
