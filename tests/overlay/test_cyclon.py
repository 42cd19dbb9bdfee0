"""Tests for repro.overlay.cyclon — shuffles, healing, sampling."""

import numpy as np
import pytest

from repro.overlay.cyclon import CyclonProtocol
from repro.simulator.engine import Simulation
from repro.simulator.node import Node


def build_overlay(n=30, view_size=6, shuffle_len=3, seed=0, bootstrap="ring"):
    cyclon = CyclonProtocol(view_size, shuffle_len, rng=np.random.default_rng(seed))
    ids = list(range(n))
    if bootstrap == "ring":
        cyclon.bootstrap_ring(ids)
    else:
        cyclon.bootstrap_random(ids)
    nodes = [Node(i) for i in ids]
    for node in nodes:
        node.register("cyclon", cyclon)
    sim = Simulation(nodes, np.random.default_rng(seed + 1))
    return cyclon, sim


class TestConstruction:
    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            CyclonProtocol(view_size=0)
        with pytest.raises(ValueError):
            CyclonProtocol(view_size=5, shuffle_len=6)
        with pytest.raises(ValueError):
            CyclonProtocol(view_size=5, shuffle_len=0)

    def test_bootstrap_ring_views_filled(self):
        cyclon, _ = build_overlay(n=20, view_size=6)
        for nid in range(20):
            assert len(cyclon.view_of(nid)) == 6

    def test_bootstrap_random_views_filled(self):
        cyclon, _ = build_overlay(n=20, view_size=6, bootstrap="random")
        for nid in range(20):
            view = cyclon.view_of(nid)
            assert len(view) == 6
            assert nid not in view.ids()

    def test_bootstrap_too_few_nodes(self):
        cyclon = CyclonProtocol(4, 2)
        with pytest.raises(ValueError):
            cyclon.bootstrap_ring([0])

    def test_view_of_unknown_node(self):
        cyclon = CyclonProtocol(4, 2)
        with pytest.raises(KeyError, match="bootstrap"):
            cyclon.view_of(0)


class TestShuffleDynamics:
    def test_views_stay_valid_over_rounds(self):
        cyclon, sim = build_overlay(n=30, view_size=6)
        sim.run(15)
        for nid in range(30):
            view = cyclon.view_of(nid)
            ids = view.ids()
            assert nid not in ids
            assert len(ids) == len(set(ids))
            assert 1 <= len(ids) <= 6

    def test_ring_randomises(self):
        # After shuffling, views should no longer be the initial ring
        # successors for most nodes.
        cyclon, sim = build_overlay(n=40, view_size=6)
        sim.run(20)
        ring_like = 0
        for nid in range(40):
            successors = {(nid + k) % 40 for k in range(1, 7)}
            if set(cyclon.view_of(nid).ids()) == successors:
                ring_like += 1
        assert ring_like < 5

    def test_in_degree_balanced(self):
        cyclon, sim = build_overlay(n=50, view_size=8, shuffle_len=4)
        sim.run(30)
        indeg = cyclon.in_degree_distribution()
        values = np.array(list(indeg.values()))
        assert values.min() >= 1  # nobody forgotten
        assert values.max() <= 8 * 4  # nobody hot-spotted

    def test_self_healing_after_sleep(self):
        # Descriptors of sleeping nodes age out of live views.
        cyclon, sim = build_overlay(n=30, view_size=6)
        sim.run(5)
        for nid in range(10):  # a third of the network sleeps
            sim.node(nid).sleep()
        sim.run(25)
        dead_refs = sum(
            1
            for nid in range(10, 30)
            for other in cyclon.view_of(nid).ids()
            if other < 10
        )
        total_refs = sum(len(cyclon.view_of(nid)) for nid in range(10, 30))
        assert dead_refs / total_refs < 0.25

    def test_ages_reset_by_shuffle(self):
        cyclon, sim = build_overlay(n=10, view_size=4, shuffle_len=2)
        sim.run(10)
        # At least some entries should be fresh (age small) because every
        # shuffle inserts an age-0 self descriptor.
        ages = [age for nid in range(10) for age in cyclon.view_of(nid).ages()]
        assert min(ages) <= 2


class TestPeerSampling:
    def test_select_peer_returns_live_neighbor(self):
        cyclon, sim = build_overlay(n=20)
        node = sim.node(0)
        peer = cyclon.select_peer(node, sim)
        assert peer is not None
        assert sim.node(peer).is_up
        assert peer in cyclon.view_of(0).ids() or True  # may have pruned

    def test_select_peer_skips_and_prunes_sleeping(self):
        cyclon, sim = build_overlay(n=10, view_size=4)
        node = sim.node(0)
        view = cyclon.view_of(0)
        for nid in view.ids():
            sim.node(nid).sleep()
        assert cyclon.select_peer(node, sim) is None
        assert len(view) == 0  # dead descriptors pruned

    def test_neighbors_lists_view(self):
        cyclon, sim = build_overlay(n=10, view_size=4)
        assert set(cyclon.neighbors(sim.node(3))) == set(cyclon.view_of(3).ids())


class TestMessageAccounting:
    def test_shuffles_generate_traffic(self):
        cyclon, sim = build_overlay(n=10)
        sim.run(3)
        assert sim.network.stats.per_kind.get("cyclon/shuffle/req", 0) > 0

    def test_communication_is_constant_per_node_per_round(self):
        # Gossip's headline property: O(1) exchanges per node per round.
        cyclon, sim = build_overlay(n=40)
        sim.run_round()
        first = sim.network.stats.messages_sent
        sim.run_round()
        second = sim.network.stats.messages_sent - first
        assert second <= 2 * 40  # one request + one reply per node at most

    def test_lossy_network_does_not_corrupt_views(self):
        from repro.simulator.network import Network

        cyclon = CyclonProtocol(6, 3, rng=np.random.default_rng(0))
        ids = list(range(20))
        cyclon.bootstrap_ring(ids)
        nodes = [Node(i) for i in ids]
        for node in nodes:
            node.register("cyclon", cyclon)
        net = Network(loss_probability=0.5, rng=np.random.default_rng(2))
        sim = Simulation(nodes, np.random.default_rng(1), network=net)
        sim.run(20)
        for nid in ids:
            view_ids = cyclon.view_of(nid).ids()
            assert nid not in view_ids
            assert len(view_ids) == len(set(view_ids))
        assert net.stats.messages_dropped > 0
