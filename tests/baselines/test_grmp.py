"""Tests for repro.baselines.grmp."""

import numpy as np
import pytest

from repro.baselines.grmp import GrmpConfig, GrmpPolicy, GrmpProtocol
from repro.datacenter.cluster import DataCenter
from repro.overlay.static import StaticOverlay
from repro.simulator.engine import Simulation
from repro.simulator.node import Node
from repro.traces.base import ArrayTrace
from repro.util.rng import RngStreams

from tests.conftest import make_constant_trace, make_datacenter, make_simulation


def build(n_pms=2, n_vms=6, cpu=0.3, mem=0.2, placement=None, threshold=0.8):
    trace = make_constant_trace(n_vms, 10, cpu=cpu, mem=mem)
    dc = DataCenter(n_pms, n_vms, trace)
    dc.apply_placement(placement or [i % n_pms for i in range(n_vms)])
    dc.advance_round()
    overlay = StaticOverlay(
        {i: [j for j in range(n_pms) if j != i] for i in range(n_pms)},
        rng=np.random.default_rng(0),
    )
    proto = GrmpProtocol(dc, overlay, GrmpConfig(upper_threshold=threshold))
    proto.enabled = True
    nodes = [Node(pm.pm_id, payload=pm) for pm in dc.pms]
    for node in nodes:
        node.register("grmp", proto)
    sim = Simulation(nodes, np.random.default_rng(1))
    return dc, sim, proto


class TestConfig:
    def test_defaults(self):
        cfg = GrmpConfig()
        assert cfg.upper_threshold == 0.8  # the paper's configuration

    def test_zero_threshold_rejected(self):
        with pytest.raises(ValueError):
            GrmpConfig(upper_threshold=0.0)


class TestPacking:
    def test_lower_utilization_side_empties(self):
        dc, sim, proto = build(placement=[0, 0, 0, 0, 1, 1])
        sim.run_round()
        assert dc.pm(1).is_empty and dc.pm(1).asleep
        assert proto.switch_offs == 1

    def test_admission_stops_at_threshold(self):
        # 6 VMs x 0.4 cpu x 500 = 1200 each side; together 2400 > 0.8*2660.
        dc, sim, proto = build(n_vms=12, cpu=0.4, mem=0.1,
                               placement=[0] * 6 + [1] * 6)
        sim.run(3)
        for pm in dc.pms:
            u = pm.utilization(cap=False)
            assert np.all(u <= 0.8 + 1e-9)

    def test_threshold_judged_on_current_demand_only(self):
        # The GRMP pathology: it packs on *current* demand even when the
        # running average says the VMs are usually hotter.
        data = make_constant_trace(6, 10, cpu=0.8, mem=0.1).data.copy()
        data[:, 5:, 0] = 0.1  # demand collapses at round 5
        trace = ArrayTrace(data)
        dc = DataCenter(2, 6, trace)
        dc.apply_placement([0, 0, 0, 1, 1, 1])
        for _ in range(6):
            dc.advance_round()  # averages now ~0.45, currents 0.1
        overlay = StaticOverlay({0: [1], 1: [0]}, rng=np.random.default_rng(0))
        proto = GrmpProtocol(dc, overlay, GrmpConfig())
        proto.enabled = True
        nodes = [Node(pm.pm_id, payload=pm) for pm in dc.pms]
        for node in nodes:
            node.register("grmp", proto)
        sim = Simulation(nodes, np.random.default_rng(1))
        sim.run_round()
        # Everything fits on one PM at current (low) demand.
        assert dc.active_count() == 1

    def test_disabled_protocol_is_inert(self):
        dc, sim, proto = build(placement=[0, 0, 0, 0, 1, 1])
        proto.enabled = False
        sim.run(3)
        assert dc.migration_count() == 0


class TestOverloadRelief:
    def test_overloaded_pm_sheds(self):
        dc, sim, proto = build(n_vms=8, cpu=0.9, mem=0.1,
                               placement=[0] * 7 + [1])
        assert dc.pm(0).is_overloaded()
        sim.run(2)
        assert not dc.pm(0).is_overloaded()

    def test_relief_respects_receiver_threshold(self):
        dc, sim, proto = build(n_vms=14, cpu=0.7, mem=0.1,
                               placement=[0] * 7 + [1] * 7)
        # Both overloaded; neither can accept -> both stay overloaded but
        # no migration ping-pong happens.
        migrations_before = dc.migration_count()
        sim.run(2)
        assert dc.migration_count() == migrations_before


class TestPolicy:
    def test_attach_and_enable(self):
        dc = make_datacenter(n_pms=6, n_vms=18)
        sim = make_simulation(dc)
        policy = GrmpPolicy()
        policy.attach(dc, sim, RngStreams(0), warmup_rounds=10)
        assert all(n.has_protocol("grmp") for n in sim.nodes)
        assert policy.protocol.enabled is False
        policy.end_warmup(dc, sim)
        assert policy.protocol.enabled is True

    def test_full_run_consolidates(self):
        dc = make_datacenter(n_pms=8, n_vms=16, n_rounds=60)
        sim = make_simulation(dc)
        policy = GrmpPolicy()
        policy.attach(dc, sim, RngStreams(1), warmup_rounds=5)
        for _ in range(5):
            dc.advance_round()
            sim.run_round()
        policy.end_warmup(dc, sim)
        for _ in range(20):
            dc.advance_round()
            sim.run_round()
        assert dc.active_count() < 8
