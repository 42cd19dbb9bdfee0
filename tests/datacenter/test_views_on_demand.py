"""No run builds a PM or VM object: every policy reads the store by id.

The only per-machine objects left are the read-only SLA records
``DataCenter.pms`` / ``DataCenter.vms`` build when read (what
``slavo`` / ``slalm`` walk).  A run of any of the four policies on the
golden cell, and an idle 200-PM run, constructs none — the constructors
are spied on.  Records read the live columns whenever they are built,
and the path that writes state wholesale (checkpoint restore) works
whether or not records were read around it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.base import ConsolidationPolicy
from repro.checkpoint import restore_checkpoint, save_checkpoint
from repro.datacenter.cluster import DataCenter
from repro.datacenter.pm import PhysicalMachine
from repro.datacenter.vm import VirtualMachine
from repro.experiments.runner import make_policy, run_policy
from repro.experiments.scenarios import Scenario
from repro.traces.google import GoogleTraceParams
from tests.conftest import make_trace
from tests.golden.test_golden_runs import POLICY_KWARGS as GOLDEN_KWARGS
from tests.golden.test_golden_runs import SCENARIO as GOLDEN_SCENARIO

IDLE_200 = Scenario(
    n_pms=200,
    ratio=3,
    rounds=4,
    warmup_rounds=2,
    repetitions=1,
    trace_params=GoogleTraceParams(rounds_per_day=6),
)


class IdlePolicy(ConsolidationPolicy):
    """Registers nothing: no protocol, no migration, no machine object."""

    name = "Idle"

    def attach(self, dc, sim, streams, warmup_rounds):
        pass


@pytest.fixture
def built(monkeypatch) -> dict:
    """How many PM / VM records have been constructed since the test began."""
    counts = {"pm": 0, "vm": 0}
    for key, cls in (("pm", PhysicalMachine), ("vm", VirtualMachine)):
        def spy(self, store, machine_id, _key=key, _init=cls.__init__):
            counts[_key] += 1
            _init(self, store, machine_id)
        monkeypatch.setattr(cls, "__init__", spy)
    return counts


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


def golden_run(policy_name: str) -> DataCenter:
    seen = []
    run_policy(
        GOLDEN_SCENARIO, make_policy(policy_name, **GOLDEN_KWARGS.get(policy_name, {})),
        GOLDEN_SCENARIO.seed_of(0), round_hook=lambda r, dc, sim: seen.append(dc),
    )
    return seen[-1]


class TestFirstTouch:
    def test_idle_run_never_builds_them(self, built):
        result = run_policy(IDLE_200, IdlePolicy(), 11)
        assert built == {"pm": 0, "vm": 0}
        assert result.bfd_baseline_pms > 0 and result.slalm == 0.0

    @pytest.mark.parametrize("policy_name", ["GRMP", "GLAP", "EcoCloud"])
    def test_gossip_runs_never_build_them(self, built, policy_name):
        """The per-PM protocols decide on the store's planes by node id
        and migrate by id, so a whole run on the golden cell builds no
        machine object."""
        assert golden_run(policy_name).migration_count() > 0
        assert built == {"pm": 0, "vm": 0}

    def test_central_run_never_builds_them(self, built):
        """PABFD's controller decides on PM and VM ids too."""
        assert golden_run("PABFD").migration_count() > 0
        assert built == {"pm": 0, "vm": 0}

    def test_sizes_and_columns_do_not_build_them(self, built):
        dc = columnar_dc()
        dc.advance_round()
        assert dc.n_pms == 8 and dc.n_vms == 24 and dc.store.n_vms == 24
        dc.placement(), dc.vm_demand_matrix(), dc.pm_demand_matrix(), dc.overloaded_count()
        dc.store.pm_peak_utilization(0), dc.reset_accounting()
        assert built == {"pm": 0, "vm": 0}

    def test_each_read_builds_fresh_records(self, built):
        dc = columnar_dc()
        pms, vms = dc.pms, dc.vms
        assert built == {"pm": dc.n_pms, "vm": dc.n_vms}
        assert [pm.pm_id for pm in pms] == list(range(dc.n_pms))
        assert [vm.vm_id for vm in vms] == list(range(dc.n_vms))
        assert dc.vms[5] is not vms[5] and dc.vms[5].store is dc.store

    def test_views_built_late_alias_the_live_columns(self):
        dc = columnar_dc()
        early = dc.vms[7]
        dc.advance_round()
        dc.advance_round()
        late = dc.vms[7]
        assert early.cpu_requested_mips_s == late.cpu_requested_mips_s
        assert late.cpu_requested_mips_s == dc.store.vm_cpu_requested[7] > 0.0
        assert dc.pms[1].active_seconds == dc.store.pm_active_seconds[1] == 240.0

    def test_unknown_ids_raise_key_error(self):
        n_vms = 24
        dc = columnar_dc(8, n_vms)
        for bad in (-1, 8, 10**6):
            with pytest.raises(KeyError, match=f"no PM {bad}"):
                dc.migrate(0, bad)
        for bad in (-1, n_vms, 10**6):
            with pytest.raises(KeyError, match=f"no VM {bad}"):
                dc.migrate(bad, 0)


class TestWholesaleWritersEitherSide:
    """Checkpoint restore, with records read around it or not."""

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
        if touch_before_restore_use:
            store = restored.dc.store
            assert restored.dc.vms[3].cpu_requested_mips_s == store.vm_cpu_requested[3]
            assert store.monitor_count[3] == IDLE_200.total_rounds
        assert column_state(restored.dc) == envs[-1]
        again = tmp_path / "again.ckpt.json"
        save_checkpoint(restored, again)
        assert column_state(restore_checkpoint(again, IdlePolicy()).dc) == envs[-1]
