"""Tests for repro.simulator.engine — cycle-driven round semantics."""

import numpy as np
import pytest

from repro.simulator.engine import Simulation
from repro.simulator.node import Node
from repro.simulator.observer import Observer
from repro.simulator.protocol import Protocol


class RecordingProtocol(Protocol):
    """Logs every active-thread call as ("exec", node_id, round)."""

    def __init__(self):
        self.calls = []

    def execute_round(self, node, sim):
        self.calls.append(("exec", node.node_id, sim.round_index))


class RecordingObserver(Observer):
    """Calls ``fn(round_index, sim)`` at the end of every round."""

    def __init__(self, fn):
        self.fn = fn

    def observe(self, round_index, sim):
        self.fn(round_index, sim)


def build(n=5, seed=0, protocol=None):
    nodes = [Node(i) for i in range(n)]
    proto = protocol if protocol is not None else RecordingProtocol()
    for node in nodes:
        node.register("p", proto)
    sim = Simulation(nodes, np.random.default_rng(seed))
    return sim, proto


class TestRoundExecution:
    def test_every_live_node_executes_once_per_round(self):
        sim, proto = build(n=6)
        sim.run_round()
        execs = [c for c in proto.calls if c[0] == "exec"]
        assert sorted(nid for _, nid, _ in execs) == list(range(6))

    def test_round_index_advances(self):
        sim, _ = build()
        assert sim.round_index == 0
        sim.run(3)
        assert sim.round_index == 3

    def test_sleeping_nodes_skipped(self):
        sim, proto = build(n=4)
        sim.node(2).sleep()
        sim.run_round()
        executed = {nid for kind, nid, _ in proto.calls if kind == "exec"}
        assert executed == {0, 1, 3}

    def test_node_sleeping_mid_round_not_executed_later(self):
        class SleepOthers(Protocol):
            """First node to run puts every higher-id node to sleep."""

            def __init__(self):
                self.executed = []

            def execute_round(self, node, sim):
                self.executed.append(node.node_id)
                if len(self.executed) == 1:
                    for other in sim.nodes:
                        if other.node_id != node.node_id:
                            other.sleep()

        proto = SleepOthers()
        sim, _ = build(n=5, protocol=proto)
        sim.run_round()
        assert len(proto.executed) == 1

    def test_execution_order_varies_across_rounds(self):
        class OrderTracker(Protocol):
            def __init__(self):
                self.orders = []
                self._current = []

            def execute_round(self, node, sim):
                self._current.append(node.node_id)
                if len(self._current) == sim.live_count():
                    self.orders.append(tuple(self._current))
                    self._current = []

        proto = OrderTracker()
        sim, _ = build(n=10, protocol=proto)
        sim.run(20)
        assert len(set(proto.orders)) > 1  # permutation is re-drawn per round

    def test_negative_rounds_rejected(self):
        sim, _ = build()
        with pytest.raises(ValueError):
            sim.run(-1)

    def test_protocol_registered_between_rounds_joins_the_stack(self):
        # Stacks are resolved once; Node.register must invalidate them.
        sim, first = build(n=3)
        sim.run_round()
        late = RecordingProtocol()
        sim.node(1).register("late", late)
        sim.run_round()
        assert late.calls == [("exec", 1, 1)]
        # Registration order: "p" ran before "late".
        order = []
        first.execute_round = lambda node, sim: order.append("p")
        late.execute_round = lambda node, sim: order.append("late")
        sim.node(0).sleep()
        sim.node(2).sleep()
        sim.run_round()
        assert order == ["p", "late"]

    def test_instance_level_wrapper_installed_mid_run_is_honoured(self):
        # benchmarks/e2e shadows execute_round on protocol *instances*.
        sim, proto = build(n=2)
        sim.run_round()
        seen, original = [], proto.execute_round
        proto.execute_round = lambda node, sim: (seen.append(node.node_id), original(node, sim))
        sim.run_round()
        assert sorted(seen) == [0, 1]

    def test_round_nobody_gossips_in_draws_what_the_loop_drew(self):
        # No node has an active thread: the round skips the loop but
        # must leave the engine stream exactly where the loop's one draw
        # would, sleepers excluded from the count as they were from the
        # loop's snapshot.
        nodes = [Node(i) for i in range(7)]
        rng = np.random.default_rng(42)
        sim = Simulation(nodes, rng)
        sim.node(3).sleep()
        expected = np.random.default_rng(42)
        for live in (6, 6, 5):
            sim.run_round()
            expected.permutation(live)
            assert rng.bit_generator.state == expected.bit_generator.state
            sim.node(0).sleep()
        assert sim.round_index == 3

    def test_registering_a_protocol_ends_the_idle_shortcut(self):
        nodes = [Node(i) for i in range(4)]
        sim = Simulation(nodes, np.random.default_rng(0))
        sim.run_round()
        proto = RecordingProtocol()
        nodes[2].register("p", proto)
        sim.run_round()
        assert proto.calls == [("exec", 2, 1)]


class TestPopulation:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            Simulation([Node(1), Node(1)], np.random.default_rng(0))

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            Simulation([], np.random.default_rng(0))

    def test_node_lookup(self):
        sim, _ = build(n=3)
        assert sim.node(2).node_id == 2
        with pytest.raises(KeyError):
            sim.node(99)

    def test_live_count(self):
        sim, _ = build(n=4)
        assert sim.live_count() == 4
        sim.node(0).sleep()
        assert sim.live_count() == 3
        assert len(sim.live_nodes()) == 3


class TestObservers:
    def test_observer_called_each_round(self):
        sim, _ = build()
        seen = []
        sim.add_observer(RecordingObserver(lambda r, s: seen.append(r)))
        sim.run(4)
        assert seen == [0, 1, 2, 3]

    def test_observer_sees_end_of_round_state(self):
        class Sleeper(Protocol):
            def execute_round(self, node, sim):
                if node.node_id == 0:
                    node.sleep()

        sim, _ = build(n=3, protocol=Sleeper())
        counts = []
        sim.add_observer(RecordingObserver(lambda r, s: counts.append(s.live_count())))
        sim.run_round()
        assert counts == [2]

    def test_on_simulation_end_called(self):
        class EndObserver(Observer):
            def __init__(self):
                self.ended = False

            def observe(self, r, s):
                pass

            def on_simulation_end(self, s):
                self.ended = True

        sim, _ = build()
        obs = EndObserver()
        sim.add_observer(obs)
        sim.run(2)
        assert obs.ended


class TestFinish:
    """Exactly one on_simulation_end per logical run, however driven."""

    class EndCounter:
        def __init__(self):
            self.ends = 0

        def observe(self, r, s):
            pass

        def on_simulation_end(self, s):
            self.ends += 1

    def _sim_with_counter(self):
        sim, _ = build()
        obs = self.EndCounter()
        sim.add_observer(obs)
        return sim, obs

    def test_run_fires_end_once(self):
        sim, obs = self._sim_with_counter()
        sim.run(3)
        assert obs.ends == 1
        assert sim.finished

    def test_zero_rounds_does_not_end(self):
        sim, obs = self._sim_with_counter()
        sim.run(0)
        assert obs.ends == 0
        assert not sim.finished

    def test_finish_is_idempotent(self):
        sim, obs = self._sim_with_counter()
        sim.run(2)
        sim.finish()
        sim.finish()
        assert obs.ends == 1

    def test_chunked_run_ends_once(self):
        # Warmup + evaluation driven as two chunks: the intermediate
        # chunk must not fire the end-of-simulation callback.
        sim, obs = self._sim_with_counter()
        sim.run(2, finish=False)
        assert obs.ends == 0 and not sim.finished
        sim.run(3, finish=False)
        assert obs.ends == 0
        sim.finish()
        assert obs.ends == 1 and sim.finished

    def test_run_round_loop_then_finish(self):
        sim, obs = self._sim_with_counter()
        for _ in range(4):
            sim.run_round()
        assert obs.ends == 0
        sim.finish()
        assert obs.ends == 1


class TestWake:
    def test_woken_node_runs_from_the_next_round(self):
        sim, proto = build(n=2)
        sim.node(1).sleep()
        sim.run_round()
        sim.wake(1)
        assert sim.node(1).is_up
        sim.run_round()
        assert sorted(proto.calls) == [("exec", 0, 0), ("exec", 0, 1), ("exec", 1, 1)]

    def test_wake_refuses_failed_node(self):
        # Policies waking sleeping PMs must never resurrect a crashed
        # one by accident — that path is reserved for recover=True.
        sim, _ = build(n=2)
        sim.node(1).fail()
        with pytest.raises(RuntimeError):
            sim.wake(1)
        assert sim.node(1).is_failed

    def test_wake_recover_restarts_failed_node(self):
        sim, proto = build(n=2)
        sim.node(1).fail()
        sim.wake(1, recover=True)
        assert sim.node(1).is_up
        sim.run_round()
        assert ("exec", 1, 0) in proto.calls

    def test_wake_recover_on_sleeping_node_is_plain_wake(self):
        sim, _ = build(n=2)
        sim.node(1).sleep()
        sim.wake(1, recover=True)
        assert sim.node(1).is_up

    def test_determinism_same_seed(self):
        def run(seed):
            class Tracker(Protocol):
                def __init__(self):
                    self.sequence = []

                def execute_round(self, node, sim):
                    self.sequence.append(node.node_id)

            proto = Tracker()
            sim, _ = build(n=8, seed=seed, protocol=proto)
            sim.run(5)
            return proto.sequence

        assert run(42) == run(42)
        assert run(42) != run(43)
