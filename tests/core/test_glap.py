"""Tests for repro.core.glap — phase wiring and the full policy."""

import numpy as np
import pytest

from repro.core.glap import GlapConfig, GlapPhase, GlapPolicy
from repro.core.qlearning import QLearningConfig
from repro.util.rng import RngStreams

from tests.conftest import make_datacenter, make_simulation


def attach_policy(n_pms=10, n_vms=30, warmup=40, config=None, seed=3):
    dc = make_datacenter(n_pms=n_pms, n_vms=n_vms, n_rounds=200, advance=False)
    sim = make_simulation(dc, seed=seed)
    policy = GlapPolicy(config)
    policy.attach(dc, sim, RngStreams(seed), warmup)
    return dc, sim, policy


class TestConfig:
    def test_defaults_valid(self):
        cfg = GlapConfig()
        assert cfg.use_q_in_guard is True

    def test_invalid_overlay_sizes(self):
        with pytest.raises(ValueError):
            GlapConfig(view_size=4, shuffle_len=5)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            GlapConfig(learning_utilization_threshold=1.5)

    def test_invalid_learning_period(self):
        with pytest.raises(ValueError):
            GlapConfig(learning_period=0)


class TestPhaseSchedule:
    def test_starts_in_learn(self):
        _, _, policy = attach_policy()
        assert policy.phase is GlapPhase.LEARN

    def test_switches_to_aggregate_at_schedule(self):
        cfg = GlapConfig(aggregation_rounds=10)
        dc, sim, policy = attach_policy(warmup=30, config=cfg)
        for _ in range(19):
            dc.advance_round()
            sim.run_round()
        assert policy.phase is GlapPhase.LEARN
        dc.advance_round()
        sim.run_round()
        assert policy.phase is GlapPhase.AGGREGATE

    def test_end_warmup_switches_to_consolidate(self):
        dc, sim, policy = attach_policy()
        policy.end_warmup(dc, sim)
        assert policy.phase is GlapPhase.CONSOLIDATE

    def test_phase_ticks_once_per_round_not_per_node(self):
        # Regression: a per-node dispatcher would advance the schedule
        # n_pms times per round and skip the learning phase entirely.
        cfg = GlapConfig(aggregation_rounds=10)
        dc, sim, policy = attach_policy(n_pms=12, n_vms=24, warmup=30, config=cfg)
        phases = []
        for _ in range(21):
            dc.advance_round()
            sim.run_round()
            phases.append(policy.phase)
        assert phases == [GlapPhase.LEARN] * 19 + [GlapPhase.AGGREGATE] * 2

    @pytest.mark.parametrize("outage", [False, True])
    def test_whole_population_outage_keeps_the_schedule(self, outage):
        # The phase follows the round number: rounds in which no node is
        # up still count, so an outage cannot shorten aggregation.
        from repro.faults import CrashEvent, FaultController, FaultPlan, RestartEvent

        everyone = tuple(range(10))
        plan = FaultPlan(
            crashes=(CrashEvent(3, everyone),) if outage else (),
            restarts=(RestartEvent(6, everyone),) if outage else (),
        )
        dc = make_datacenter(n_pms=10, n_vms=30, n_rounds=200, advance=False)
        sim = make_simulation(dc, seed=3)
        streams = RngStreams(3)
        controller = FaultController(plan, streams.get("faults")).install(dc, sim)
        policy = GlapPolicy(GlapConfig(aggregation_rounds=5))
        policy.attach(dc, sim, streams, warmup_rounds=20)
        phases, live = [], []
        for _ in range(20):
            dc.advance_round()
            controller.before_round(dc, sim)
            live.append(sim.live_count())
            sim.run_round()
            phases.append(policy.phase)
        assert live[3:6] == ([0, 0, 0] if outage else [10, 10, 10])
        assert phases == [GlapPhase.LEARN] * 14 + [GlapPhase.AGGREGATE] * 6

    def test_checkpoint_with_the_retired_round_counter_loads(self):
        # Checkpoints written while a per-round tick drove the schedule
        # also carry its counter; the round number replaces it.
        cfg = GlapConfig(aggregation_rounds=5)
        dc, sim, policy = attach_policy(warmup=20, config=cfg)
        for _ in range(12):
            dc.advance_round()
            sim.run_round()
        state = dict(policy.state_dict(), rounds_seen=12, round_token=11)
        _, _, resumed = attach_policy(warmup=20, config=cfg)
        resumed.load_state_dict(state)
        assert resumed.phase is GlapPhase.LEARN
        assert resumed.state_dict() == policy.state_dict()

    def test_warmup_too_short_rejected(self):
        dc = make_datacenter(advance=False)
        sim = make_simulation(dc)
        policy = GlapPolicy(GlapConfig(aggregation_rounds=30))
        with pytest.raises(ValueError, match="warmup"):
            policy.attach(dc, sim, RngStreams(0), warmup_rounds=20)


class TestAttachment:
    def test_models_created_per_node(self):
        dc, sim, policy = attach_policy(n_pms=10)
        assert set(policy.models.keys()) == {n.node_id for n in sim.nodes}

    def test_protocols_registered(self):
        _, sim, policy = attach_policy()
        for node in sim.nodes:
            assert "overlay" in node.protocols
            assert node.protocol("glap") is policy.phase_protocol

    def test_static_overlay_variant(self):
        from repro.overlay.static import StaticOverlay

        cfg = GlapConfig(overlay="static", aggregation_rounds=10)
        dc, sim, policy = attach_policy(config=cfg, warmup=20)
        assert policy.cyclon is None
        assert isinstance(policy._sampler, StaticOverlay)
        for _ in range(20):
            dc.advance_round()
            sim.run_round()
        policy.end_warmup(dc, sim)
        for _ in range(5):
            dc.advance_round()
            sim.run_round()
        assert dc.migration_count() > 0  # consolidation still works

    def test_invalid_overlay_rejected(self):
        with pytest.raises(ValueError, match="overlay"):
            GlapConfig(overlay="hypercube")

    def test_overlay_sizes_clamped_for_small_clusters(self):
        # 5 nodes < default view_size 20: must not crash.
        dc, sim, policy = attach_policy(n_pms=5, n_vms=10)
        assert policy.cyclon.view_size <= 4

    def test_custom_qlearning_config_propagates(self):
        cfg = GlapConfig(qlearning=QLearningConfig(alpha=0.9, gamma=0.1))
        _, _, policy = attach_policy(config=cfg)
        model = next(iter(policy.models.values()))
        assert model.config.alpha == 0.9

    def test_consolidation_accessor(self):
        _, _, policy = attach_policy()
        assert policy.consolidation is policy.phase_protocol.consolidation


class TestLearningDuringWarmup:
    def test_warmup_populates_models(self):
        cfg = GlapConfig(aggregation_rounds=5, learning_period=1)
        dc, sim, policy = attach_policy(warmup=20, config=cfg)
        for _ in range(20):
            dc.advance_round()
            sim.run_round()
        entries = [m.total_entries() for m in policy.models.values()]
        assert max(entries) > 0

    def test_aggregation_unifies_models(self):
        from repro.core.convergence import mean_pairwise_cosine

        cfg = GlapConfig(aggregation_rounds=15, learning_period=1)
        dc, sim, policy = attach_policy(warmup=40, config=cfg)
        for _ in range(40):
            dc.advance_round()
            sim.run_round()
        score = mean_pairwise_cosine(list(policy.models.values()))
        assert score > 0.95

    def test_no_migrations_during_warmup(self):
        cfg = GlapConfig(aggregation_rounds=5)
        dc, sim, policy = attach_policy(warmup=15, config=cfg)
        for _ in range(15):
            dc.advance_round()
            sim.run_round()
        assert dc.migration_count() == 0

    def test_consolidation_after_warmup_migrates(self):
        cfg = GlapConfig(aggregation_rounds=5)
        dc, sim, policy = attach_policy(warmup=15, config=cfg)
        for _ in range(15):
            dc.advance_round()
            sim.run_round()
        policy.end_warmup(dc, sim)
        for _ in range(5):
            dc.advance_round()
            sim.run_round()
        assert dc.migration_count() > 0
        assert dc.active_count() < dc.n_pms  # someone switched off
