"""Protocol-level contract of the deferred half of Algorithm 1: training
rounds are *collected* when their node executes and applied by a later
flush, and nothing may observe the difference.

Every test runs the same cell twice — as shipped (lazy: a flush when the
chunk fills or somebody reads a model) and *eager* (a flush after every
``execute_round``, i.e. the old apply-at-once behaviour) — and compares
what a reader saw, bit for bit.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.glap import GlapConfig, GlapPhase, GlapPolicy
from repro.core.learning import GossipLearningProtocol, VmProfile, _action_code
from repro.core.qlearning import QLearningModel
from repro.datacenter.resources import EC2_MICRO
from repro.obs.telemetry import TelemetryRegistry
from repro.overlay.cyclon import CyclonProtocol
from repro.simulator.protocol import Protocol
from repro.util.io import iter_json
from repro.util.rng import RngStreams

from tests.conftest import make_datacenter, make_simulation
from tests.core._reference_learning import reference_action_code

#: Rounds that train: the first GLAP call of the next one switches to AGGREGATE.
LEARN_ROUNDS = 5


class _Probe(Protocol):
    """Runs ``action(node, sim)`` right after each node's GLAP turn."""

    def __init__(self, action) -> None:
        self.action = action

    def execute_round(self, node, sim) -> None:
        self.action(node, sim)


def _cell(action=None, *, eager=False, telemetry=False, monkeypatch=None, rounds=LEARN_ROUNDS):
    """A 12-PM GLAP cell run through its learning rounds."""
    dc = make_datacenter(n_pms=12, n_vms=36, n_rounds=60, advance=False)
    sim = make_simulation(dc, seed=3)
    if telemetry:
        sim.telemetry = TelemetryRegistry(gauge_every=1)
    config = GlapConfig(
        aggregation_rounds=4, learning_period=1, learning_utilization_threshold=1.0
    )
    policy = GlapPolicy(config)
    policy.attach(dc, sim, RngStreams(3), LEARN_ROUNDS + 1 + 4)
    if eager:
        learning = policy.phase_protocol.learning
        collect = learning.execute_round

        def collect_and_flush(node, sim):
            collect(node, sim)
            learning.flush()

        monkeypatch.setattr(learning, "execute_round", collect_and_flush)
    if action is not None:
        probe = _Probe(action)
        for node in sim.nodes:
            node.register("probe", probe)
    for _ in range(rounds):
        dc.advance_round()
        sim.run_round()
    return dc, sim, policy


def _pending(policy) -> int:
    trainer = policy.phase_protocol.learning._trainer
    return 0 if trainer is None else len(trainer._k_s)


def _models_json(policy) -> str:
    return "".join(iter_json(policy.state_dict()["models"]))


READERS = {
    "export_model": lambda policy: json.dumps(policy.export_model().to_dict(), sort_keys=True),
    "state_dict": lambda policy: "".join(
        iter_json({k: policy.state_dict()[k] for k in ("models", "learning")})
    ),
    "q_cosine_gauge": lambda policy: float(policy._sample_convergence()).hex(),
    "models_attribute": lambda policy: json.dumps(
        {nid: m.to_dict() for nid, m in policy.models.items()}, sort_keys=True
    ),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_a_read_in_the_middle_of_a_learn_round_sees_every_collected_round(reader, monkeypatch):
    read = READERS[reader]

    def run(eager):
        seen, pending = [], []

        def action(node, sim):
            # Three reads per round, at the turns of three fixed nodes.
            if node.node_id in (2, 5, 9):
                assert policy.phase is GlapPhase.LEARN
                pending.append(_pending(policy))
                seen.append(read(policy))
                assert _pending(policy) == 0

        # Built with no rounds run, so the probe finds ``policy`` bound.
        dc, sim, policy = _cell(
            action, eager=eager, telemetry=True, monkeypatch=monkeypatch, rounds=0
        )
        for _ in range(LEARN_ROUNDS):
            dc.advance_round()
            sim.run_round()
        return seen, pending

    lazy_seen, lazy_pending = run(eager=False)
    eager_seen, eager_pending = run(eager=True)
    assert max(lazy_pending) > 0, "nothing was pending at any read: the test reads nothing"
    assert not any(eager_pending)
    assert lazy_seen == eager_seen


@pytest.mark.parametrize("how", ["sleep", "fail"])
def test_a_node_that_leaves_later_in_the_round_keeps_its_collected_updates(how, monkeypatch):
    def run(eager):
        trained = {}

        def action(node, sim):
            # In round 2, take down node 4 at the turn of whichever
            # node runs after it has trained.
            victim = sim.node(4)
            if sim.round_index == 2 and victim.is_up and node.node_id != 4 and trained.get(4):
                getattr(victim, how)()
            if sim.round_index == 2 and node.node_id == 4:
                trained[4] = True

        dc, sim, policy = _cell(action, eager=eager, monkeypatch=monkeypatch)
        assert not sim.node(4).is_up
        return (
            _models_json(policy),
            policy.phase_protocol.learning.train_rounds,
            len(policy.models[4].q_out),
        )

    lazy, eager = run(False), run(True)
    assert lazy == eager
    assert lazy[2] > 0, "node 4 never trained"


def test_td_sums_are_folded_in_at_flush_and_rounds_are_always_counted(monkeypatch):
    def run(eager, telemetry):
        _, _, policy = _cell(eager=eager, telemetry=telemetry, monkeypatch=monkeypatch)
        learning = policy.phase_protocol.learning
        policy.models  # any read flushes
        return learning.td_error_abs, learning.td_updates, learning.train_rounds

    lazy, eager = run(False, True), run(True, True)
    assert lazy[0].hex() == eager[0].hex() and lazy[1:] == eager[1:]
    td_abs, td_updates, train_rounds = lazy
    assert train_rounds > 0 and td_abs > 0.0
    assert td_updates == 2 * 20 * train_rounds
    # Without telemetry the TD sums stay at zero; the round count does not.
    assert run(False, False) == (0.0, 0, train_rounds)


def test_phase_switch_and_end_of_warmup_leave_nothing_pending():
    dc, sim, policy = _cell(rounds=LEARN_ROUNDS - 1)
    learning = policy.phase_protocol.learning
    held = _pending(policy)
    assert policy.phase is GlapPhase.LEARN and held > 0
    before = learning.train_rounds
    dc.advance_round()
    sim.run_round()  # Alg. 1's first call flushes the previous round, then this one trains
    assert policy.phase is GlapPhase.LEARN
    assert _pending(policy) == 20 * (learning.train_rounds - before)
    dc.advance_round()
    sim.run_round()  # the first GLAP call: flush, then LEARN -> AGGREGATE
    assert policy.phase is GlapPhase.AGGREGATE and _pending(policy) == 0

    dc, sim, policy = _cell(rounds=3)
    assert _pending(policy) > 0
    policy.end_warmup(dc, sim)
    assert _pending(policy) == 0


def test_standalone_protocol_flushes_at_every_round_start():
    """Registered on nodes directly (no GlapPolicy), the protocol applies
    what the previous round collected at its first call of the next
    round, before that round trains."""
    dc = make_datacenter(n_pms=8, n_vms=24)
    sim = make_simulation(dc)
    cyclon = CyclonProtocol(4, 2, rng=np.random.default_rng(0))
    cyclon.bootstrap_random([n.node_id for n in sim.nodes])
    models = {n.node_id: QLearningModel() for n in sim.nodes}
    proto = GossipLearningProtocol(
        dc, models, cyclon, np.random.default_rng(1), utilization_threshold=1.0,
        iterations_per_round=10,
    )
    for node in sim.nodes:
        node.register("cyclon", cyclon)
        node.register("learn", proto)
    sim.run_round()
    assert proto.train_rounds > 0 and len(proto._trainer._k_s) == 10 * proto.train_rounds
    assert all(m.total_entries() == 0 for m in models.values())
    first_round = proto.train_rounds
    dc.advance_round()
    sim.run_round()
    assert len(proto._trainer._k_s) == 10 * (proto.train_rounds - first_round)
    assert sum(m.total_entries() > 0 for m in models.values()) >= 1
    proto.flush()
    assert not proto._trainer._k_s


# -- traps ---------------------------------------------------------------------


def test_action_code_is_the_quotient_not_the_vm_action_plane():
    """``(fraction * capacity) / capacity`` need not round back to the
    fraction: just above the 0.9 edge of the memory scale the profile's
    action is 4xHigh where the plane (coded from the raw fraction) says
    5xHigh.  Algorithm 1 must keep the quotient."""
    dc = make_datacenter(n_pms=4, n_vms=8)
    edge = 0.9000000000000001
    assert edge > 0.9 and (edge * EC2_MICRO.mem_mb) / EC2_MICRO.mem_mb == 0.9
    store = dc.store
    store.avg[0] = (0.3, edge)
    cap = EC2_MICRO.capacity_vector()
    profile = VmProfile(store.cur[0] * cap, store.avg[0] * cap, cap)
    quotient = reference_action_code(profile)
    assert profile.action_code() == quotient
    assert _action_code(*profile.average_abs.tolist(), *EC2_MICRO.capacity_vector().tolist()) == quotient
    store.invalidate_planes()
    avg_cpu, avg_mem, _, _ = store.vm_demand_rows([0])
    assert _action_code(avg_cpu[0], avg_mem[0], EC2_MICRO.cpu_mips, EC2_MICRO.mem_mb) == quotient
    assert store.vm_action[0] == quotient + 1


def test_negative_or_nan_demands_are_refused_before_any_draw():
    """k_t as a count (and the closed-form pool) need nondecreasing prefix
    sums; a negative or NaN demand must fail loudly, not mis-train."""
    from repro.core.learning import LocalTrainer
    from repro.datacenter.resources import HP_PROLIANT_ML110_G5

    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    trainer = LocalTrainer(QLearningModel(), HP_PROLIANT_ML110_G5.capacity_vector(), rng)
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError, match=">= 0"):
            trainer.collect(trainer.model, [10.0, bad], [5.0, 5.0], [1.0, 1.0], [1.0, 1.0], [0, 0])
    assert rng.bit_generator.state == before and not trainer._rounds
