"""Tests for repro.baselines.ecocloud."""

import numpy as np
import pytest

from repro.baselines.ecocloud import EcoCloudConfig, EcoCloudPolicy, EcoCloudProtocol
from repro.datacenter.cluster import DataCenter
from repro.simulator.engine import Simulation
from repro.simulator.node import Node
from repro.util.rng import RngStreams

from tests.conftest import make_constant_trace, make_datacenter, make_simulation


class TestConfigValidation:
    def test_paper_defaults(self):
        cfg = EcoCloudConfig()
        assert cfg.lower_threshold == 0.3 and cfg.upper_threshold == 0.8

    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError):
            EcoCloudConfig(lower_threshold=0.8, upper_threshold=0.3)

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            EcoCloudConfig(assignment_shape=0.0)


class TestAcceptProbability:
    def test_zero_at_empty(self):
        assert EcoCloudConfig().accept_probability(0.0) == 0.0

    def test_zero_at_and_above_t2(self):
        cfg = EcoCloudConfig()
        assert cfg.accept_probability(0.8) == 0.0
        assert cfg.accept_probability(0.95) == 0.0

    def test_peaks_at_interior_point(self):
        cfg = EcoCloudConfig(assignment_shape=3.0)
        u_star = 0.8 * 3.0 / 4.0  # T2 * p/(p+1) = 0.6
        assert cfg.accept_probability(u_star) == pytest.approx(1.0)
        assert cfg.accept_probability(0.3) < 1.0
        assert cfg.accept_probability(0.75) < 1.0

    def test_bounded_probability(self):
        cfg = EcoCloudConfig()
        for u in np.linspace(0, 1, 50):
            assert 0.0 <= cfg.accept_probability(float(u)) <= 1.0


class TestMigrateProbabilities:
    def test_underload_decreasing_in_utilization(self):
        cfg = EcoCloudConfig()
        ps = [cfg.underload_migrate_probability(u) for u in (0.0, 0.2, 0.4, 0.6)]
        assert ps == sorted(ps, reverse=True)

    def test_underload_anchor_near_t1(self):
        cfg = EcoCloudConfig()
        assert cfg.underload_migrate_probability(0.3) == pytest.approx(0.18, abs=0.02)

    def test_underload_zero_at_t2(self):
        assert EcoCloudConfig().underload_migrate_probability(0.8) == 0.0

    def test_overload_zero_below_t2(self):
        assert EcoCloudConfig().overload_migrate_probability(0.7) == 0.0

    def test_overload_grows_with_utilization(self):
        cfg = EcoCloudConfig()
        assert cfg.overload_migrate_probability(1.0) == 1.0
        assert 0 < cfg.overload_migrate_probability(0.9) < 1.0


def build_protocol(n_pms=4, n_vms=8, cpu=0.3, mem=0.1, placement=None, seed=0):
    trace = make_constant_trace(n_vms, 20, cpu=cpu, mem=mem)
    dc = DataCenter(n_pms, n_vms, trace)
    dc.apply_placement(placement or [i % n_pms for i in range(n_vms)])
    dc.advance_round()
    proto = EcoCloudProtocol(dc, EcoCloudConfig(), np.random.default_rng(seed))
    proto.enabled = True
    nodes = [Node(pm.pm_id, payload=pm) for pm in dc.pms]
    for node in nodes:
        node.register("eco", proto)
    sim = Simulation(nodes, np.random.default_rng(seed + 1))
    return dc, sim, proto


class TestProtocol:
    def test_underloaded_pms_eventually_drain(self):
        dc, sim, proto = build_protocol(cpu=0.25)
        for _ in range(30):
            dc.advance_round()
            sim.run_round()
        assert dc.active_count() < 4
        assert proto.switch_offs >= 1

    def test_no_receiver_above_capacity(self):
        dc, sim, proto = build_protocol(n_pms=3, n_vms=12, cpu=0.5, mem=0.2)
        for _ in range(30):
            dc.advance_round()
            sim.run_round()
        for pm in dc.pms:
            if not pm.asleep:
                assert np.all(pm.utilization(cap=False) <= 1.0 + 1e-9)

    def test_overloaded_pm_sheds_probabilistically(self):
        dc, sim, proto = build_protocol(
            n_pms=2, n_vms=7, cpu=0.9, mem=0.05, placement=[0] * 6 + [1]
        )
        assert dc.pm(0).is_overloaded()
        for _ in range(10):
            dc.advance_round()
            sim.run_round()
        assert not dc.pm(0).is_overloaded()

    def test_disabled_is_inert(self):
        dc, sim, proto = build_protocol()
        proto.enabled = False
        for _ in range(5):
            dc.advance_round()
            sim.run_round()
        assert dc.migration_count() == 0

    def test_broadcast_traffic_accounted(self):
        dc, sim, proto = build_protocol(cpu=0.1)
        for _ in range(10):
            dc.advance_round()
            sim.run_round()
        assert sim.network.stats.per_kind.get("ecocloud/broadcast", 0) > 0


class TestPolicy:
    def test_attach_registers_everywhere(self):
        dc = make_datacenter()
        sim = make_simulation(dc)
        policy = EcoCloudPolicy()
        policy.attach(dc, sim, RngStreams(0), warmup_rounds=5)
        assert all("ecocloud" in n.protocols for n in sim.nodes)
        policy.end_warmup(dc, sim)
        assert policy.protocol.enabled
