"""Tests for repro.core.aggregation — Algorithm 2."""

import numpy as np
import pytest

from repro.core.aggregation import QAggregationProtocol, merge_qtables
from repro.core.convergence import mean_pairwise_cosine
from repro.core.qlearning import QLearningModel
from repro.core.qtable import QTable
from repro.overlay.cyclon import CyclonProtocol
from repro.simulator.engine import Simulation
from repro.simulator.node import Node


class TestMergeQTables:
    def test_both_ends_identical_after_merge(self):
        a, b = QTable(), QTable()
        a.set(0, 0, 2.0)
        a.set(1, 1, 5.0)
        b.set(0, 0, 4.0)
        b.set(2, 2, -1.0)
        merge_qtables(a, b)
        assert dict(a.items()) == dict(b.items())
        assert a.get(0, 0) == 3.0  # averaged
        assert a.get(1, 1) == 5.0  # adopted by b
        assert a.get(2, 2) == -1.0  # adopted by a

    def test_merge_idempotent(self):
        a, b = QTable(), QTable()
        a.set(0, 0, 2.0)
        b.set(0, 0, 4.0)
        merge_qtables(a, b)
        snapshot = dict(a.items())
        merge_qtables(a, b)
        assert dict(a.items()) == snapshot

    def test_mass_conserved_for_shared_keys(self):
        a, b = QTable(), QTable()
        a.set(0, 0, 10.0)
        b.set(0, 0, 2.0)
        before = a.get(0, 0) + b.get(0, 0)
        merge_qtables(a, b)
        assert a.get(0, 0) + b.get(0, 0) == pytest.approx(before)


def build_population(n=20, entries_per_node=4, seed=0):
    rng = np.random.default_rng(seed)
    models = {}
    for nid in range(n):
        model = QLearningModel()
        for _ in range(entries_per_node):
            model.q_out.set(int(rng.integers(81)), int(rng.integers(81)),
                            float(rng.normal()))
            model.q_in.set(int(rng.integers(81)), int(rng.integers(81)),
                           float(rng.normal()))
        models[nid] = model
    cyclon = CyclonProtocol(6, 3, rng=np.random.default_rng(seed + 1))
    cyclon.bootstrap_random(list(range(n)))
    proto = QAggregationProtocol(models, cyclon, np.random.default_rng(seed + 2))
    nodes = [Node(i) for i in range(n)]
    for node in nodes:
        node.register("cyclon", cyclon)
        node.register("agg", proto)
    sim = Simulation(nodes, np.random.default_rng(seed + 3))
    return models, sim, proto


class TestAggregationProtocol:
    def test_similarity_increases_monotonically_ish(self):
        models, sim, _ = build_population()
        before = mean_pairwise_cosine(list(models.values()))
        sim.run(1)
        mid = mean_pairwise_cosine(list(models.values()))
        sim.run(20)
        after = mean_pairwise_cosine(list(models.values()))
        assert before < mid <= after
        assert after > 0.99

    def test_converges_to_identical_maps(self):
        # The paper's requirement: "it is essential for all PMs to own
        # identical ones".
        models, sim, _ = build_population(n=16, entries_per_node=3)
        sim.run(40)
        sim_score = mean_pairwise_cosine(list(models.values()))
        assert sim_score > 0.99

    def test_key_union_spreads_to_everyone(self):
        models, sim, _ = build_population(n=10, entries_per_node=2)
        union = set()
        for m in models.values():
            union |= set(m.q_out.keys())
        sim.run(40)
        for m in models.values():
            assert set(m.q_out.keys()) == union

    def test_exchange_counter_and_traffic(self):
        models, sim, proto = build_population(n=10)
        sim.run(2)
        assert proto.exchanges > 0
        assert sim.network.stats.per_kind.get("glap/aggregate/req", 0) > 0

    def test_nodes_with_empty_maps_adopt_knowledge(self):
        models, sim, _ = build_population(n=10, entries_per_node=2)
        # Blank half the population (PMs too loaded to have trained).
        for nid in range(5):
            models[nid].q_out = QTable()
            models[nid].q_in = QTable()
        sim.run(30)
        assert all(m.total_entries() > 0 for m in models.values())


def build_population_bw(n=20, entries_per_node=4, seed=0, **proto_kwargs):
    """build_population with bandwidth knobs on the protocol."""
    rng = np.random.default_rng(seed)
    models = {}
    for nid in range(n):
        model = QLearningModel()
        for _ in range(entries_per_node):
            model.q_out.set(int(rng.integers(81)), int(rng.integers(81)),
                            float(rng.normal()))
            model.q_in.set(int(rng.integers(81)), int(rng.integers(81)),
                           float(rng.normal()))
        models[nid] = model
    cyclon = CyclonProtocol(6, 3, rng=np.random.default_rng(seed + 1))
    cyclon.bootstrap_random(list(range(n)))
    proto = QAggregationProtocol(
        models, cyclon, np.random.default_rng(seed + 2), **proto_kwargs
    )
    nodes = [Node(i) for i in range(n)]
    for node in nodes:
        node.register("cyclon", cyclon)
        node.register("agg", proto)
    sim = Simulation(nodes, np.random.default_rng(seed + 3))
    return models, sim, proto


class TestPartitionedExchange:
    def test_converges_to_identical_maps(self):
        models, sim, _ = build_population_bw(n=16, entries_per_node=3,
                                             n_partitions=4)
        sim.run(80)
        assert mean_pairwise_cosine(list(models.values())) > 0.99

    def test_key_union_still_spreads(self):
        models, sim, _ = build_population_bw(n=10, entries_per_node=2,
                                             n_partitions=3)
        union = set()
        for m in models.values():
            union |= set(m.q_out.keys())
        sim.run(120)
        for m in models.values():
            assert set(m.q_out.keys()) == union

    def test_single_partition_matches_default_protocol_exactly(self):
        # n_partitions=1 must take the historical full-map path bit for bit.
        models_a, sim_a, _ = build_population_bw(n=12)
        models_b, sim_b, _ = build_population_bw(n=12, n_partitions=1)
        sim_a.run(10)
        sim_b.run(10)
        for nid in models_a:
            assert dict(models_a[nid].q_out.items()) == dict(
                models_b[nid].q_out.items())
            assert dict(models_a[nid].q_in.items()) == dict(
                models_b[nid].q_in.items())

    def test_partitioned_contact_ships_fewer_bytes(self):
        _, sim_full, proto_full = build_population_bw(n=12, seed=5)
        _, sim_part, proto_part = build_population_bw(n=12, seed=5,
                                                      n_partitions=4)
        sim_full.run(6)
        sim_part.run(6)
        assert proto_part.exchanges == proto_full.exchanges
        assert proto_part.bytes_total < proto_full.bytes_total

    def test_partition_lag_accumulates(self):
        _, sim, proto = build_population_bw(n=8, n_partitions=4)
        sim.run(1)
        assert proto.partition_lag == 0  # no partition shipped twice yet
        sim.run(8)
        # Each node re-ships bucket b every 4 of its own exchanges.
        assert proto.partition_lag > 0

    def test_rotation_cursor_advances_per_initiated_exchange(self):
        _, sim, proto = build_population_bw(n=8, n_partitions=4)
        sim.run(3)
        for cursor in proto._next_partition.values():
            assert 0 <= cursor < 4
        assert proto._next_partition  # every initiator tracked

    def test_invalid_arguments_rejected(self):
        models = {0: QLearningModel()}
        rng = np.random.default_rng(0)
        cyclon = CyclonProtocol(2, 1, rng=np.random.default_rng(1))
        with pytest.raises(ValueError):
            QAggregationProtocol(models, cyclon, rng, n_partitions=0)
        with pytest.raises(ValueError):
            QAggregationProtocol(models, cyclon, rng, token_budget=-1.0)
        with pytest.raises(ValueError):
            # a budget without its dedicated stream is a config error
            QAggregationProtocol(models, cyclon, rng, token_budget=10.0)
        with pytest.raises(ValueError):
            QAggregationProtocol(models, cyclon, rng, token_budget=10.0,
                                 token_capacity=0.0,
                                 token_rng=np.random.default_rng(2))


class TestTokenFlowControl:
    def test_tight_budget_defers_exchanges(self):
        _, sim, proto = build_population_bw(
            n=12, token_budget=24.0, token_capacity=48.0,
            token_rng=np.random.default_rng(9),
        )
        sim.run(15)
        assert proto.deferred > 0
        assert proto.exchanges < 12 * 15  # some contacts were skipped

    def test_generous_budget_never_defers(self):
        _, sim_free, proto_free = build_population_bw(n=10, seed=3)
        _, sim_rich, proto_rich = build_population_bw(
            n=10, seed=3, token_budget=1e9,
            token_rng=np.random.default_rng(9),
        )
        sim_free.run(8)
        sim_rich.run(8)
        assert proto_rich.deferred == 0
        assert proto_rich.exchanges == proto_free.exchanges
        assert proto_rich.bytes_total == proto_free.bytes_total

    def test_throttled_run_spends_fewer_bytes(self):
        _, sim_free, proto_free = build_population_bw(n=12, seed=4)
        _, sim_tight, proto_tight = build_population_bw(
            n=12, seed=4, token_budget=100.0,
            token_rng=np.random.default_rng(11),
        )
        sim_free.run(20)
        sim_tight.run(20)
        assert proto_tight.bytes_total < proto_free.bytes_total

    def test_capacity_defaults_to_four_rounds_of_budget(self):
        proto = QAggregationProtocol(
            {0: QLearningModel()},
            CyclonProtocol(2, 1, rng=np.random.default_rng(0)),
            np.random.default_rng(1),
            token_budget=100.0,
            token_rng=np.random.default_rng(2),
        )
        assert proto.token_capacity == 400.0

    def test_zero_budget_consumes_no_token_randomness(self):
        # The bit-identity contract: an unthrottled protocol never touches
        # a token stream (it does not even require one).
        _, sim, proto = build_population_bw(n=10)
        assert proto._token_rng is None
        sim.run(5)
        assert proto.deferred == 0

    def test_state_dict_round_trips(self):
        _, sim, proto = build_population_bw(
            n=10, n_partitions=3, token_budget=500.0,
            token_rng=np.random.default_rng(21),
        )
        sim.run(12)
        state = proto.state_dict()
        import json
        state = json.loads(json.dumps(state))  # must be JSON-safe
        clone = QAggregationProtocol(
            proto.models, proto.sampler, np.random.default_rng(0),
            n_partitions=3, token_budget=500.0,
            token_rng=np.random.default_rng(21),
        )
        clone.load_state_dict(state)
        assert clone.exchanges == proto.exchanges
        assert clone.bytes_total == proto.bytes_total
        assert clone.deferred == proto.deferred
        assert clone.partition_lag == proto.partition_lag
        assert clone._next_partition == proto._next_partition
        assert clone._last_shipped == proto._last_shipped
        assert clone._tokens == proto._tokens
        assert clone._token_round == proto._token_round


class TestDeferredContactsDoNoSlicing:
    """A deferred contact is sized with ``bucket_len`` and never builds
    its four ``partition`` slices; nothing observable may move."""

    def _throttled(self, token_rng):
        return build_population_bw(
            n=12, seed=4, entries_per_node=6, n_partitions=4,
            token_budget=60.0, token_rng=token_rng,
        )

    def test_counters_rotation_and_token_draws_pinned(self):
        # Recorded on the dict-backed implementation that sliced first.
        token_rng = np.random.default_rng(11)
        _, sim, proto = self._throttled(token_rng)
        sim.run(20)
        assert proto.exchanges == 106
        assert proto.bytes_total == 35100
        assert proto.deferred == 134
        assert proto.partition_lag == 468
        assert [proto._next_partition[nid] for nid in range(12)] == [
            2, 3, 0, 2, 2, 2, 3, 1, 1, 0, 1, 1,
        ]
        # Same number of draws consumed from the token stream.
        assert float(token_rng.random()).hex() == "0x1.a7ae1e70bdc82p-2"

    def test_deferred_contact_builds_no_slice(self, monkeypatch):
        models, sim, proto = self._throttled(np.random.default_rng(11))
        sliced = []
        real_partition = QTable.partition
        monkeypatch.setattr(
            QTable, "partition",
            lambda self, k, bucket: sliced.append(1) or real_partition(self, k, bucket),
        )
        deferred_seen = 0
        for _ in range(20):
            for node in sim.nodes:
                before = (len(sliced), proto.deferred, proto.bytes_total,
                          dict(proto._next_partition), proto.partition_lag)
                snapshot = {nid: (dict(m.q_out.items()), dict(m.q_in.items()))
                            for nid, m in models.items()}
                proto.execute_round(node, sim)
                if proto.deferred == before[1]:
                    continue
                deferred_seen += 1
                assert len(sliced) == before[0]
                assert proto.bytes_total == before[2]
                assert proto._next_partition == before[3]
                assert proto.partition_lag == before[4]
                assert snapshot == {
                    nid: (dict(m.q_out.items()), dict(m.q_in.items()))
                    for nid, m in models.items()
                }
            sim.round_index += 1
        assert deferred_seen > 0
        assert len(sliced) == 4 * proto.exchanges  # two tables, two ends


class TestExchangeByteAccounting:
    """Regression for the byte double-count: ``bytes_sent`` recorded
    2 x (mine + theirs) per exchange because both the /req and /rep
    messages carried the combined size."""

    _ENTRY_BYTES = 12

    def _two_node_population(self):
        a, b = QLearningModel(), QLearningModel()
        a.q_out.set(0, 1, 1.0)
        a.q_out.set(2, 3, 2.0)
        a.q_in.set(4, 5, 3.0)          # 3 entries on the initiator
        b.q_out.set(6, 7, 4.0)
        b.q_in.set(8, 9, 5.0)
        b.q_in.set(10, 11, 6.0)
        b.q_in.set(12, 13, 7.0)
        b.q_in.set(14, 15, 8.0)        # 5 entries on the peer
        models = {0: a, 1: b}
        cyclon = CyclonProtocol(1, 1, rng=np.random.default_rng(0))
        cyclon.bootstrap_random([0, 1])
        proto = QAggregationProtocol(models, cyclon,
                                     np.random.default_rng(1))
        nodes = [Node(0), Node(1)]
        for node in nodes:
            node.register("agg", proto)
        sim = Simulation(nodes, np.random.default_rng(2))
        return models, sim, proto, nodes

    def test_two_node_exchange_pins_exact_byte_totals(self):
        models, sim, proto, nodes = self._two_node_population()
        seen = []
        sim.network.observer = lambda msg, dropped: seen.append(msg)
        proto.execute_round(nodes[0], sim)
        assert proto.exchanges == 1
        req, rep = seen
        assert req.kind == "glap/aggregate/req"
        assert rep.kind == "glap/aggregate/rep"
        # The request carries the initiator's 3 entries, the reply the
        # peer's 5 — not (3 + 5) on both directions.
        assert req.size_bytes == 3 * self._ENTRY_BYTES
        assert rep.size_bytes == 5 * self._ENTRY_BYTES
        assert sim.network.stats.bytes_sent == 8 * self._ENTRY_BYTES
        assert proto.bytes_total == 8 * self._ENTRY_BYTES

    def test_gossip_bytes_counter_matches_network_bytes(self):
        models, sim, proto, nodes = self._two_node_population()
        proto.execute_round(nodes[0], sim)
        proto.execute_round(nodes[1], sim)
        counters = proto.bandwidth_counters()
        assert counters["bytes"] == float(sim.network.stats.bytes_sent)
        assert counters["deferred"] == 0.0
        assert counters["partition_lag"] == 0.0
