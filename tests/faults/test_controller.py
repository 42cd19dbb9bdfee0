"""FaultController unit behaviour against a small simulation."""

import numpy as np
import pytest

from repro.faults import CrashEvent, FaultPhase, FaultPlan, FaultController, RestartEvent
from repro.simulator.network import Message
from tests.conftest import make_datacenter, make_simulation


def make_env():
    dc = make_datacenter(n_pms=8, n_vms=16)
    sim = make_simulation(dc)
    return dc, sim


def controller_for(plan, dc, sim, seed=0):
    ctl = FaultController(plan, np.random.default_rng(seed))
    ctl.install(dc, sim)
    return ctl


class TestLifecycle:
    def test_before_round_requires_install(self):
        dc, sim = make_env()
        ctl = FaultController(FaultPlan.none(), np.random.default_rng(0))
        with pytest.raises(RuntimeError, match="install"):
            ctl.before_round(dc, sim)

    def test_install_binds_faults_rng_to_network(self):
        dc, sim = make_env()
        rng = np.random.default_rng(1)
        FaultController(FaultPlan.none(), rng).install(dc, sim)
        assert sim.network._rng is rng

    def test_null_plan_is_a_noop(self):
        dc, sim = make_env()
        ctl = controller_for(FaultPlan.none(), dc, sim)
        for _ in range(5):
            ctl.before_round(dc, sim)
            sim.run_round()
        assert ctl.crashes_injected == 0
        assert ctl.phase_changes == 0
        assert sim.network.loss_probability == 0.0
        assert all(n.is_up for n in sim.nodes)


class TestPhases:
    def test_phase_applies_and_clears(self):
        dc, sim = make_env()
        plan = FaultPlan(
            phases=(FaultPhase(start_round=1, end_round=3, loss=0.4,
                               partition=((0, 1, 2, 3), (4, 5, 6, 7))),)
        )
        ctl = controller_for(plan, dc, sim)
        ctl.before_round(dc, sim)  # round 0: not yet
        assert sim.network.loss_probability == 0.0
        assert not sim.network.partitioned
        sim.run_round()

        ctl.before_round(dc, sim)  # round 1: in force
        assert sim.network.loss_probability == 0.4
        assert sim.network.partitioned
        sim.run_round()
        ctl.before_round(dc, sim)  # round 2: unchanged, no re-apply
        assert ctl.phase_changes == 1
        sim.run_round()

        ctl.before_round(dc, sim)  # round 3: cleared
        assert sim.network.loss_probability == 0.0
        assert not sim.network.partitioned
        assert ctl.phase_changes == 2

    def test_per_kind_loss_reaches_network(self):
        dc, sim = make_env()
        plan = FaultPlan.message_loss(0.0, loss_per_kind={"glap": 1.0})
        ctl = controller_for(plan, dc, sim)
        ctl.before_round(dc, sim)
        assert sim.network.deliver(Message(0, 1, "glap/state/req")) is False
        assert sim.network.deliver(Message(0, 1, "cyclon/shuffle/req")) is True


class TestCrashRestart:
    def test_scheduled_crash_and_restart(self):
        dc, sim = make_env()
        plan = FaultPlan(
            crashes=(CrashEvent(0, (2, 5)),),
            restarts=(RestartEvent(2, (2, 5)),),
        )
        ctl = controller_for(plan, dc, sim)
        ctl.before_round(dc, sim)
        assert sim.node(2).is_failed and sim.node(5).is_failed
        sim.run_round()
        ctl.before_round(dc, sim)
        sim.run_round()
        ctl.before_round(dc, sim)  # round 2: restart
        assert sim.node(2).is_up and sim.node(5).is_up
        assert ctl.crashes_injected == 2
        assert ctl.restarts_injected == 2

    def test_crash_is_idempotent(self):
        dc, sim = make_env()
        plan = FaultPlan(crashes=(CrashEvent(0, (1,)), CrashEvent(0, (1,))))
        # Duplicate ids within one event are rejected at plan level; two
        # events for one round are merged — the second crash is a no-op.
        ctl = controller_for(plan, dc, sim)
        ctl.before_round(dc, sim)
        assert ctl.crashes_injected == 1

    def test_restart_of_healthy_node_is_noop(self):
        dc, sim = make_env()
        plan = FaultPlan(restarts=(RestartEvent(0, (3,)),))
        ctl = controller_for(plan, dc, sim)
        ctl.before_round(dc, sim)
        assert sim.node(3).is_up
        assert ctl.restarts_injected == 0

    def test_restart_respects_pm_consolidated_away_meanwhile(self):
        dc, sim = make_env()
        plan = FaultPlan(
            crashes=(CrashEvent(0, (4,)),), restarts=(RestartEvent(1, (4,)),)
        )
        ctl = controller_for(plan, dc, sim)
        ctl.before_round(dc, sim)
        # While node 4 is down, its (empty) PM gets consolidated away.
        store = dc.store
        for vm_id in list(store.members[4]):
            store.remove_member(4, vm_id)
            store.add_member(0, vm_id)
        store.pm_asleep[4] = True
        sim.run_round()
        ctl.before_round(dc, sim)
        # The node rejoins the population switched off, not UP.
        assert sim.node(4).is_sleeping
        assert store.pm_asleep[4]

    def test_policies_cannot_wake_a_crashed_node(self):
        dc, sim = make_env()
        sim.node(0).fail()
        with pytest.raises(RuntimeError):
            sim.wake(0)
        sim.wake(0, recover=True)
        assert sim.node(0).is_up


class TestChurn:
    def test_churn_crashes_and_restarts(self):
        dc, sim = make_env()
        plan = FaultPlan.churn(0.2, downtime_rounds=2)
        ctl = controller_for(plan, dc, sim, seed=3)
        crashed_rounds = []
        for r in range(12):
            ctl.before_round(dc, sim)
            crashed_rounds.append(sum(1 for n in sim.nodes if n.is_failed))
            sim.run_round()
        assert ctl.crashes_injected > 0
        assert ctl.restarts_injected > 0
        # Every node still failed is awaiting a scheduled restart.
        assert ctl.crashes_injected - ctl.restarts_injected == sum(
            1 for n in sim.nodes if n.is_failed
        )

    def test_churn_is_deterministic_per_seed(self):
        counts = []
        for _ in range(2):
            dc, sim = make_env()
            ctl = controller_for(FaultPlan.churn(0.15), dc, sim, seed=11)
            for _ in range(10):
                ctl.before_round(dc, sim)
                sim.run_round()
            counts.append((ctl.crashes_injected, ctl.restarts_injected))
        assert counts[0] == counts[1]
