"""Tests for repro.core.learning — Algorithm 1 (local training)."""

import numpy as np
import pytest

from repro.core.learning import GossipLearningProtocol, LocalTrainer, VmProfile
from repro.core.qlearning import QLearningConfig, QLearningModel
from repro.core.states import UtilizationLevel, decode_state
from repro.datacenter.resources import EC2_MICRO, HP_PROLIANT_ML110_G5
from repro.overlay.cyclon import CyclonProtocol

from repro.datacenter.columnar import ColumnarStore

from tests.conftest import make_datacenter, make_simulation, observe

PM_CAP = HP_PROLIANT_ML110_G5.capacity_vector()


def profile(cpu_cur, mem_cur, cpu_avg=None, mem_avg=None):
    cap = EC2_MICRO.capacity_vector()
    cpu_avg = cpu_cur if cpu_avg is None else cpu_avg
    mem_avg = mem_cur if mem_avg is None else mem_avg
    return VmProfile(
        current_abs=np.array([cpu_cur, mem_cur]) * cap,
        average_abs=np.array([cpu_avg, mem_avg]) * cap,
        spec_capacity=cap,
    )


class TestVmProfile:
    def test_of_vm(self):
        """The profile Alg. 1 pulls for a VM: its store rows, absolute."""
        store = ColumnarStore(1, 2)
        observe(store, 1, 0.5, 0.4)
        avg_cpu, avg_mem, cur_cpu, cur_mem = store.vm_demand_rows([1])
        np.testing.assert_allclose([cur_cpu[0], cur_mem[0]], [250, 0.4 * 613])
        assert [avg_cpu[0], avg_mem[0]] == [cur_cpu[0], cur_mem[0]]

    def test_action_code_on_vm_scale(self):
        p = profile(0.85, 0.56)
        assert decode_state(p.action_code()) == (
            UtilizationLevel.XXXXHIGH,
            UtilizationLevel.XHIGH,
        )

    def test_action_code_uses_average(self):
        p = profile(0.9, 0.9, cpu_avg=0.1, mem_avg=0.1)
        assert decode_state(p.action_code()) == (
            UtilizationLevel.LOW,
            UtilizationLevel.LOW,
        )


class TestPreparePool:
    def trainer(self, **kw):
        return LocalTrainer(QLearningModel(), PM_CAP, np.random.default_rng(0), **kw)

    def test_duplicates_until_coverage(self):
        trainer = self.trainer(coverage_target=2.0)
        pool = trainer.prepare_pool([profile(0.5, 0.5)])
        total = sum(p.average_abs[0] for p in pool)
        assert total >= 2.0 * PM_CAP[0] or len(pool) == trainer.max_profiles

    def test_no_duplication_when_enough(self):
        trainer = self.trainer(coverage_target=0.1)
        profiles = [profile(1.0, 1.0) for _ in range(10)]
        assert len(trainer.prepare_pool(profiles)) == 10

    def test_max_profiles_cap(self):
        trainer = self.trainer(coverage_target=100.0, max_profiles=30)
        pool = trainer.prepare_pool([profile(0.01, 0.01)])
        assert len(pool) == 30

    def test_empty_pool(self):
        assert self.trainer().prepare_pool([]) == []


class TestTrainRound:
    def test_populates_both_tables(self):
        model = QLearningModel()
        trainer = LocalTrainer(model, PM_CAP, np.random.default_rng(0),
                               iterations_per_round=50)
        profiles = [profile(0.3 + 0.1 * i, 0.2) for i in range(5)]
        updates = trainer.train_round(profiles)
        assert updates > 0
        assert len(model.q_out) > 0 and len(model.q_in) > 0

    def test_single_profile_no_updates(self):
        model = QLearningModel()
        trainer = LocalTrainer(model, PM_CAP, np.random.default_rng(0),
                               coverage_target=0.0001, max_profiles=1)
        assert trainer.train_round([profile(0.5, 0.5)]) == 0

    def test_learns_overload_danger(self):
        # Train long enough and the in-map must mark transitions into
        # overloaded targets with negative values.
        model = QLearningModel(QLearningConfig(alpha=0.5, gamma=0.8))
        trainer = LocalTrainer(model, PM_CAP, np.random.default_rng(0),
                               iterations_per_round=3000)
        profiles = [profile(0.5, 0.3) for _ in range(6)]
        trainer.train_round(profiles)
        negatives = [v for _, v in model.q_in.items() if v < 0]
        assert negatives, "training never discovered an overload transition"

    def test_moderate_targets_stay_acceptable(self):
        # Most learned in-values for light destination states must stay
        # non-negative, else Q_in degenerates to reject-everything.
        model = QLearningModel()
        trainer = LocalTrainer(model, PM_CAP, np.random.default_rng(1),
                               iterations_per_round=3000)
        profiles = [profile(0.1 + 0.08 * i, 0.1 + 0.03 * i) for i in range(10)]
        trainer.train_round(profiles)
        light_values = [
            v
            for (s, _), v in model.q_in.items()
            if max(int(l) for l in decode_state(s)) <= int(UtilizationLevel.MEDIUM)
        ]
        assert light_values
        accept_fraction = np.mean([v >= 0 for v in light_values])
        assert accept_fraction > 0.5

    def test_deterministic_given_rng(self):
        def run(seed):
            model = QLearningModel()
            trainer = LocalTrainer(model, PM_CAP, np.random.default_rng(seed),
                                   iterations_per_round=100)
            trainer.train_round([profile(0.3 * (i % 3 + 1), 0.2) for i in range(6)])
            return dict(model.q_out.items()), dict(model.q_in.items())

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_invalid_capacity_shape(self):
        with pytest.raises(ValueError):
            LocalTrainer(QLearningModel(), np.ones(3), np.random.default_rng(0))


class TestGossipLearningProtocol:
    def build(self, threshold=1.0, period=1):
        dc = make_datacenter(n_pms=8, n_vms=24)
        sim = make_simulation(dc)
        cyclon = CyclonProtocol(4, 2, rng=np.random.default_rng(0))
        cyclon.bootstrap_random([n.node_id for n in sim.nodes])
        models = {n.node_id: QLearningModel() for n in sim.nodes}
        proto = GossipLearningProtocol(
            dc, models, cyclon, np.random.default_rng(1),
            utilization_threshold=threshold, iterations_per_round=10,
            learning_period=period,
        )
        for node in sim.nodes:
            node.register("cyclon", cyclon)
            node.register("learn", proto)
        return dc, sim, models, proto

    def test_models_accumulate_entries(self):
        dc, sim, models, _ = self.build()
        for _ in range(3):
            dc.advance_round()
            sim.run_round()
        assert any(m.total_entries() > 0 for m in models.values())

    def test_threshold_blocks_loaded_pms(self):
        # With an impossible threshold nobody trains.
        dc, sim, models, _ = self.build(threshold=0.0)
        dc.advance_round()
        sim.run_round()
        assert all(m.total_entries() == 0 for m in models.values())

    def test_learning_period_skips_rounds(self):
        dc, sim, models, proto = self.build(period=1000)
        dc.advance_round()
        sim.run_round()  # round 0: only nodes with id % 1000 == 0 train
        trained = [nid for nid, m in models.items() if m.total_entries() > 0]
        assert trained in ([], [0])

    def test_profiles_exchange_counts_traffic(self):
        dc, sim, models, _ = self.build()
        dc.advance_round()
        sim.run_round()
        assert sim.network.stats.per_kind.get("glap/profiles/req", 0) > 0
