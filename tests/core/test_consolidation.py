"""Tests for repro.core.consolidation — Algorithm 3."""

import numpy as np
import pytest

from repro.core.consolidation import GlapConsolidationProtocol
from repro.core.qlearning import QLearningModel
from repro.core.states import pm_state, vm_action
from repro.datacenter.cluster import DataCenter
from repro.overlay.static import StaticOverlay
from repro.simulator.engine import Simulation
from repro.simulator.node import Node
from repro.traces.base import ArrayTrace

from tests.conftest import make_constant_trace


def build(n_pms=2, n_vms=4, cpu=0.5, mem=0.2, placement=None, q_in_guard=True):
    """Two (or more) PMs wired with a full static overlay."""
    trace = make_constant_trace(n_vms, 10, cpu=cpu, mem=mem)
    dc = DataCenter(n_pms, n_vms, trace)
    if placement is None:
        placement = [i % n_pms for i in range(n_vms)]
    dc.apply_placement(placement)
    dc.advance_round()
    adjacency = {
        i: [j for j in range(n_pms) if j != i] for i in range(n_pms)
    }
    overlay = StaticOverlay(adjacency, rng=np.random.default_rng(0))
    models = {i: QLearningModel() for i in range(n_pms)}
    proto = GlapConsolidationProtocol(dc, models, overlay, use_q_in_guard=q_in_guard)
    nodes = [Node(pm.pm_id, payload=pm) for pm in dc.pms]
    for node in nodes:
        node.register("glap", proto)
    sim = Simulation(nodes, np.random.default_rng(1))
    return dc, sim, models, proto


class TestSenderSelection:
    def test_less_utilized_pm_empties_into_other(self):
        # PM0 hosts 3 VMs, PM1 hosts 1 -> PM1 is the sender and empties.
        dc, sim, models, proto = build(placement=[0, 0, 0, 1])
        sim.run_round()
        assert dc.pm(1).is_empty
        assert dc.pm(1).asleep
        assert dc.pm(0).vm_count == 4
        assert proto.switch_offs == 1

    def test_consolidation_respects_capacity(self):
        # Demands too big to fit on one PM: the sender keeps the rest.
        dc, sim, models, proto = build(cpu=1.0, mem=0.2, n_vms=8,
                                       placement=[0, 0, 0, 0, 1, 1, 1, 1])
        sim.run_round()
        # 8 VMs x 500 MIPS = 4000 > 2660: someone must be refused.
        assert not dc.pm(0).is_overloaded()
        assert not dc.pm(1).is_overloaded()
        assert proto.rejections_by_capacity > 0

    def test_empty_sender_sleeps_without_migrating(self):
        dc, sim, models, proto = build(placement=[1, 1, 1, 1])
        sim.run_round()
        assert dc.pm(0).asleep
        assert dc.migration_count() == 0


class TestQInGuard:
    def test_negative_q_in_blocks_migration(self):
        dc, sim, models, proto = build(placement=[0, 0, 0, 1])
        # Poison every model: the receiver state x action pair is negative.
        receiver_state = pm_state(dc.pm(0), use_average=True)
        action = vm_action(dc.vm(3), use_average=True)
        for model in models.values():
            model.q_in.set(receiver_state, action, -50.0)
        sim.run_round()
        assert dc.pm(1).vm_count == 1  # nothing moved
        assert proto.rejections_by_q_in > 0

    def test_guard_disabled_ignores_negative_values(self):
        dc, sim, models, proto = build(placement=[0, 0, 0, 1], q_in_guard=False)
        receiver_state = pm_state(dc.pm(0), use_average=True)
        action = vm_action(dc.vm(3), use_average=True)
        for model in models.values():
            model.q_in.set(receiver_state, action, -50.0)
        sim.run_round()
        assert dc.pm(1).is_empty  # capacity was the only check
        assert proto.rejections_by_q_in == 0


class TestOverloadRelief:
    def test_overloaded_initiator_sheds_until_relieved(self):
        # PM0 overloaded (6 x 0.9 x 500 = 2700 > 2660), PM1 empty-ish.
        dc, sim, models, proto = build(
            n_vms=7, cpu=0.9, mem=0.1, placement=[0, 0, 0, 0, 0, 0, 1]
        )
        assert dc.pm(0).is_overloaded()
        sim.run(2)
        assert not dc.pm(0).is_overloaded()
        assert dc.migration_count() >= 1

    def test_overloaded_pm_does_not_sleep(self):
        dc, sim, models, proto = build(
            n_vms=7, cpu=0.9, mem=0.1, placement=[0, 0, 0, 0, 0, 0, 1]
        )
        sim.run(3)
        assert not dc.pm(0).asleep


class TestFindVm:
    def test_picks_action_with_highest_q_out(self):
        dc, sim, models, proto = build(cpu=0.5)
        model = models[0]
        dc.store.ensure_planes()
        found = proto._find_vm(model, 0)
        assert found is not None
        action, vm_id = found
        vm = dc.vm(vm_id)
        assert vm.host_id == 0
        assert vm_action(vm, use_average=True) == action

    def test_least_memory_vm_breaks_ties(self):
        # Same action level, different memory -> cheapest migration wins.
        data = make_constant_trace(2, 5, cpu=0.5, mem=0.3).data.copy()
        data[1, :, 1] = 0.31  # VM 1 slightly more memory
        trace = ArrayTrace(data)
        dc = DataCenter(2, 2, trace)
        dc.apply_placement([0, 0])
        dc.advance_round()
        overlay = StaticOverlay({0: [1], 1: [0]}, rng=np.random.default_rng(0))
        models = {0: QLearningModel(), 1: QLearningModel()}
        proto = GlapConsolidationProtocol(dc, models, overlay)
        dc.store.ensure_planes()
        found = proto._find_vm(models[0], 0)
        assert found is not None
        _, vm_id = found
        assert vm_id == 0

    def test_empty_pm_finds_nothing(self):
        dc, sim, models, proto = build(placement=[1, 1, 1, 1])
        dc.store.ensure_planes()
        assert proto._find_vm(models[0], 0) is None


class TestRobustness:
    def test_sleeping_receiver_skipped(self):
        dc, sim, models, proto = build(placement=[0, 0, 0, 1])
        dc.pm(0).asleep = True
        sim.node(0).sleep()
        sim.run_round()
        # PM1's only neighbour is asleep: select_peer fails, nothing happens.
        assert dc.pm(1).vm_count == 1

    def test_migration_cap_bounds_loop(self):
        dc, sim, models, proto = build(n_pms=2, n_vms=12, cpu=0.1, mem=0.05,
                                       placement=[0] * 6 + [1] * 6)
        proto.max_migrations_per_exchange = 2
        sim.run_round()
        # Each exchange moved at most 2 VMs.
        assert dc.migration_count() <= 4

    def test_invalid_cap_rejected(self):
        dc, sim, models, _ = build()
        with pytest.raises(ValueError):
            GlapConsolidationProtocol(dc, models, None, max_migrations_per_exchange=0)

    def test_lost_state_exchange_aborts_round(self):
        from repro.simulator.network import Network

        trace = make_constant_trace(4, 10, cpu=0.5, mem=0.2)
        dc = DataCenter(2, 4, trace)
        dc.apply_placement([0, 0, 0, 1])
        dc.advance_round()
        overlay = StaticOverlay({0: [1], 1: [0]}, rng=np.random.default_rng(0))
        models = {0: QLearningModel(), 1: QLearningModel()}
        proto = GlapConsolidationProtocol(dc, models, overlay)
        nodes = [Node(pm.pm_id, payload=pm) for pm in dc.pms]
        for node in nodes:
            node.register("glap", proto)
        net = Network(loss_probability=1.0, rng=np.random.default_rng(0))
        sim = Simulation(nodes, np.random.default_rng(1), network=net)
        sim.run_round()
        assert dc.migration_count() == 0
