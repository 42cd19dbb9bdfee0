"""Hot-path micro-benchmarks (pytest-benchmark's natural territory).

Not paper artefacts — these guard the performance of the inner loops
that dominate a full run, so a regression shows up here before it turns
a 5-minute sweep into an hour.
"""

import numpy as np
import pytest

from repro.core.learning import LocalTrainer, VmProfile, _profile_rows
from repro.core.qlearning import QLearningModel
from repro.core.qtable import QTable
from repro.core.states import state_code_fast
from repro.datacenter.cluster import DataCenter
from repro.datacenter.resources import EC2_MICRO, HP_PROLIANT_ML110_G5
from repro.overlay.cyclon import CyclonProtocol
from repro.simulator.engine import Simulation
from repro.simulator.node import Node
from repro.traces.google import GoogleLikeTraceGenerator, GoogleTraceParams


def test_state_encoding(benchmark):
    values = np.random.default_rng(0).uniform(0, 1.2, size=(1000, 2))

    def encode_all():
        total = 0
        for u0, u1 in values:
            total += state_code_fast(u0, u1)
        return total

    benchmark(encode_all)


def test_qtable_update(benchmark):
    q = QTable()
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 81, size=(500, 3))

    def update_all():
        for s, a, s_next in keys:
            q.update(int(s), int(a), 5.0, int(s_next), alpha=0.5, gamma=0.8)

    benchmark(update_all)


def _random_qtable(seed):
    t = QTable()
    r = np.random.default_rng(seed)
    for _ in range(300):
        t.set(int(r.integers(81)), int(r.integers(81)), float(r.normal()))
    return t


def test_qtable_merge(benchmark):
    a, b = _random_qtable(1), _random_qtable(2)

    def merge():
        a.copy().merge(b)

    benchmark(merge)


def _old_partitioned_contact(pairs, k, bucket):
    """A partitioned contact's table work as it was before it became one
    exchange per table pair: count each end's bucket, cut both slices
    (masking again), then fold each slice into the other end's map."""
    from repro.core.qtable import _bucket_table

    ids = _bucket_table(k)
    shipped = sum(int(np.count_nonzero(ids[t._keys] == bucket)) for pair in pairs for t in pair)
    for ours, peers in pairs:
        slices = []
        for t in (ours, peers):
            mask = ids[t._keys] == bucket
            cut = QTable()
            cut._new_keys(t._keys[mask])
            cut._vals, cut._owned = t._vals[mask], True
            slices.append(cut)
        ours.merge(slices[1])
        peers.merge(slices[0])
    return shipped


def _new_partitioned_contact(pairs, k, bucket):
    """The protocol's: each table's bucket slots, found once, size the
    contact and feed one exchange per table pair."""
    slots = [(ours.bucket_slots(k, bucket), peers.bucket_slots(k, bucket)) for ours, peers in pairs]
    for (ours, peers), (slots_ours, slots_peers) in zip(pairs, slots):
        QTable.merge_bucket(ours, peers, slots_ours, slots_peers)
    return sum(s.shape[0] for pair in slots for s in pair)


@pytest.mark.parametrize("contact", ["new", "old"])
def test_qtable_partitioned_contact(benchmark, contact):
    """One Alg. 2 contact at ``k = 4``: the ``q_out`` and ``q_in`` maps of
    two ~300-entry models exchange bucket 1.  Every round starts from
    privately owned copies of the same four maps (as most maps of a
    ``glap_bw_k4_120`` run are); both twins ship the same entries and
    leave the same maps."""
    models = [(_random_qtable(1), _random_qtable(3)), (_random_qtable(2), _random_qtable(4))]
    twins = {"new": _new_partitioned_contact, "old": _old_partitioned_contact}

    def fresh():
        def own(t):
            keys, vals = t.packed()
            return QTable._of(keys, vals)

        (out_a, in_a), (out_b, in_b) = models
        return ([(own(out_a), own(out_b)), (own(in_a), own(in_b))], 4, 1), {}

    shipped = benchmark.pedantic(twins[contact], setup=fresh, rounds=2000, iterations=1)
    (pairs, k, bucket), _ = fresh()
    assert shipped == _old_partitioned_contact(pairs, k, bucket)
    results = {}
    for name, run in twins.items():
        (pairs, k, bucket), _ = fresh()
        run(pairs, k, bucket)
        results[name] = [dict(t.items()) for pair in pairs for t in pair]
    assert results["new"] == results["old"]


def _trainer_bench_profiles():
    cap = EC2_MICRO.capacity_vector()
    rng = np.random.default_rng(0)
    return [
        VmProfile(
            current_abs=rng.uniform(0.05, 0.9, 2) * cap,
            average_abs=rng.uniform(0.05, 0.9, 2) * cap,
            spec_capacity=cap,
        )
        for _ in range(24)
    ]


def test_trainer_round(benchmark):
    """The public entry point: collect one round, flush it."""
    trainer = LocalTrainer(
        QLearningModel(),
        HP_PROLIANT_ML110_G5.capacity_vector(),
        np.random.default_rng(1),
        iterations_per_round=20,
    )

    benchmark(trainer.train_round, _trainer_bench_profiles())


@pytest.mark.parametrize("half", ["collect", "flush"])
def test_trainer_collect_then_flush(benchmark, half):
    """Algorithm 1's two halves apart, per training round: the draw loop
    the determinism contract pins, and the deferred whole-array pass plus
    Q-updates amortised over a chunk of 12 rounds (as a gossip round
    batches them)."""
    rows = _profile_rows(_trainer_bench_profiles())
    models = [QLearningModel() for _ in range(12)]
    trainer = LocalTrainer(
        None, HP_PROLIANT_ML110_G5.capacity_vector(), np.random.default_rng(1)
    )

    def collect():
        for model in models:
            trainer.collect(model, *rows)

    if half == "collect":
        benchmark.pedantic(collect, teardown=trainer.flush, rounds=30)
    else:
        benchmark.pedantic(trainer.flush, setup=collect, rounds=30)


def test_cyclon_round(benchmark):
    cyclon = CyclonProtocol(20, 8, rng=np.random.default_rng(0))
    ids = list(range(200))
    cyclon.bootstrap_random(ids)
    nodes = [Node(i) for i in ids]
    for node in nodes:
        node.register("cyclon", cyclon)
    sim = Simulation(nodes, np.random.default_rng(1))

    benchmark(sim.run_round)


def _big_dc(n_pms=2000, ratio=4, rounds=16):
    """A paper-scale data centre (2000 PMs x ratio 4 = 8000 VMs)."""
    n_vms = n_pms * ratio
    trace = GoogleLikeTraceGenerator(
        GoogleTraceParams(rounds_per_day=rounds)
    ).generate(n_vms, rounds, np.random.default_rng(0))
    dc = DataCenter(n_pms, n_vms, trace)
    dc.place_randomly(np.random.default_rng(1))
    dc.advance_round()
    return dc


def test_advance_round_2000pms(benchmark):
    dc = _big_dc()
    # advance_round wraps at the trace length, so repetition is safe.
    benchmark(dc.advance_round)


def test_utilization_matrix_2000pms(benchmark):
    dc = _big_dc()
    benchmark(dc.utilization_matrix)


def test_eviction_scoring_2000pms(benchmark):
    """Action codes for every placed VM — the ``findVM`` scoring input."""
    store = _big_dc().store
    placed = np.flatnonzero(store.host >= 0)
    benchmark(store.vm_action_codes, placed, use_average=True)


def test_invariant_check_2000pms(benchmark):
    from repro.simulator.observer import check_datacenter_invariants

    dc = _big_dc()
    benchmark(check_datacenter_invariants, dc)


def test_alg3_step_decision(benchmark):
    """The decision of one Alg. 3 step, for 2 000 fixed PM pairs: overload
    test, sender choice, ``findVM``, the ``Q_in`` guard on the receiver's
    state and the capacity check — everything a step reads before it
    migrates (a migration would change the cell from one benchmark round
    to the next), on the protocol's plane reads and Q index."""
    from repro.core.consolidation import GlapConsolidationProtocol, _state
    from repro.core.states import N_STATES

    dc = _big_dc()
    store = dc.store
    rng = np.random.default_rng(2)
    model = QLearningModel()
    for table in (model.q_out, model.q_in):
        for _ in range(600):
            table.set(int(rng.integers(N_STATES)), int(rng.integers(N_STATES)), float(rng.normal()))
    proto = GlapConsolidationProtocol(dc, {}, sampler=None)
    pairs = [(int(p), int(q)) for p, q in rng.integers(0, dc.n_pms, (2000, 2)) if p != q]

    def decide(p, q):
        if not store.pm_overloaded(p) and (
            store.pm_total_utilization(p) > store.pm_total_utilization(q)
        ):
            p, q = q, p
        chosen = proto._find_vm(model, p)
        if chosen is None:
            return False
        action, vm = chosen
        return model.pi_in(_state(store, q), action) and store.pm_fits(q, vm)

    def decide_all():
        store.ensure_planes()
        return sum(decide(p, q) for p, q in pairs)

    assert benchmark(decide_all) > 0


# The ledger's scale cell (benchmarks/e2e ``scale_trace_20k``: 20 000 PMs
# x 4, diurnal period 12, seed 2016), rebuilt here so the two layers the
# cell's fixed cost sits in can be timed alone.
def _scale_cell(seed=2016):
    from repro.experiments.runner import build_simulation, build_trace
    from repro.experiments.scenarios import Scenario

    scenario = Scenario(
        n_pms=20000, ratio=4, rounds=16, warmup_rounds=4, repetitions=1,
        trace_params=GoogleTraceParams(rounds_per_day=12),
    )
    return scenario, build_trace(scenario, seed), build_simulation


def _scale_cell_demands(seed):
    """The cell's end-of-run demand set (80 000 items) and PM capacity."""
    scenario, trace, build_simulation = _scale_cell(seed)
    dc, _, _ = build_simulation(scenario, seed, trace=trace)
    for _ in range(scenario.total_rounds):
        dc.advance_round()
    return dc.vm_demand_matrix(), dc.store.pm_cap[0]


def _tests_package_on_path():
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))


def _packers():
    from repro.baselines.bfd import bfd_pack

    _tests_package_on_path()
    from tests.baselines._reference_bfd import reference_bfd_pack

    return {"new": bfd_pack, "old": reference_bfd_pack}


# Trace seed 3 has the most idle (zero-CPU) VMs of seeds 1-10: 5 859 of
# 80 000 against 1 584 at seed 2016 -- the population whose size swung
# the cost of the shortcut PR 14 withdrew.
@pytest.mark.parametrize("seed", [2016, 3])
@pytest.mark.parametrize("scan", ["new", "old"])
def test_bfd_pack_80k(benchmark, scan, seed):
    """``bfd_pack`` (residual index) against the scan of every open bin
    it replaced (``tests/baselines/_reference_bfd.py``) on the cell's
    end-of-run demand set, ~5 300-6 700 bins: same bins."""
    packers = _packers()
    demands, capacity = _scale_cell_demands(seed)
    bins = benchmark.pedantic(packers[scan], args=(demands, capacity), rounds=3, iterations=1)
    assert bins == packers["new"](demands, capacity)


@pytest.mark.parametrize("scan", ["new", "old"])
def test_bfd_pack_400k(benchmark, scan):
    """The next rung's packing (100k PMs x 4): the cell's set five times
    over, each copy jittered by < 0.1 % so ties are not artificial."""
    packers = _packers()
    demands, capacity = _scale_cell_demands(2016)
    rng = np.random.default_rng(0)
    demands = np.concatenate(
        [demands * (1.0 + rng.uniform(-1e-3, 1e-3, size=demands.shape)) for _ in range(5)]
    )
    bins = benchmark.pedantic(packers[scan], args=(demands, capacity), rounds=1, iterations=1)
    assert bins == packers["new"](demands, capacity)


@pytest.mark.parametrize("builder", ["blocked", "dense"])
def test_trace_build_80k_vms_20_rounds(benchmark, builder):
    """The cell's trace: synthesis in VM blocks into the round-major array
    (validated and frozen by ``ArrayTrace``) against the dense builder it
    replaced (``tests/traces/_reference_synthetic.py``; the bare array, no
    validation).  That the two agree value for value is
    ``tests/traces/test_synthetic_differential.py``'s job."""
    _tests_package_on_path()
    from tests.traces._reference_synthetic import reference_google_trace

    params = GoogleTraceParams(rounds_per_day=12)

    def build():
        rng = np.random.default_rng(2016)
        if builder == "dense":
            return reference_google_trace(params, 80_000, 20, rng)
        return GoogleLikeTraceGenerator(params).generate(80_000, 20, rng).data

    data = benchmark.pedantic(build, rounds=5, iterations=1)
    assert data.shape == (80_000, 20, 2)


@pytest.mark.parametrize("layout", ["slab", "vm_major"])
def test_advance_round_80k_vms_720_rounds(benchmark, layout):
    """``advance_round`` over a paper-length (720-round, 0.9 GB) trace:
    ``ArrayTrace``'s contiguous round slab against the VM-major layout it
    had until PR 21, where a round is 80 000 rows 11.5 KB apart."""
    from repro.traces.base import ArrayTrace, TraceSource

    class VmMajorTrace(TraceSource):
        def __init__(self, data):
            self._data = data

        n_vms = property(lambda self: self._data.shape[0])
        n_rounds = property(lambda self: self._data.shape[1])

        def demands_at(self, round_index):
            return self._data[:, round_index % self.n_rounds, :]

    rng = np.random.default_rng(0)
    if layout == "slab":
        trace = ArrayTrace(rng.random((720, 80_000, 2)).transpose(1, 0, 2))
    else:
        trace = VmMajorTrace(rng.random((80_000, 720, 2)))
    dc = DataCenter(20_000, 80_000, trace)
    dc.place_randomly(np.random.default_rng(1))
    benchmark.pedantic(dc.advance_round, rounds=200, iterations=1, warmup_rounds=5)


def test_build_datacenter_20k(benchmark):
    """Store, placement, nodes and engine for the cell."""
    scenario, trace, build_simulation = _scale_cell()
    benchmark.pedantic(
        build_simulation, args=(scenario, 2016), kwargs={"trace": trace}, rounds=5, iterations=1
    )


@pytest.fixture(scope="module")
def glap_300_checkpoint(tmp_path_factory):
    """A GLAP run in the shape of the ledger's ``glap_paper_300`` cell
    (300 PMs x 3, 6 aggregation rounds), checkpointed at eval round 10 —
    no ledger workload checkpoints a GLAP run, so the per-node Q-maps
    (the bulk of such a file) are timed only here."""
    from repro.checkpoint import restore_checkpoint
    from repro.core.glap import GlapConfig, GlapPolicy
    from repro.experiments.runner import build_trace, run_policy
    from repro.experiments.scenarios import Scenario

    scenario = Scenario(
        n_pms=300, ratio=3, rounds=10, warmup_rounds=14, repetitions=1,
        trace_params=GoogleTraceParams(rounds_per_day=12),
    )
    path = tmp_path_factory.mktemp("ckpt") / "glap300.ckpt.json"
    trace = build_trace(scenario, 2016)

    def policy():
        return GlapPolicy(GlapConfig(aggregation_rounds=6))

    def restore():
        return restore_checkpoint(path, policy(), trace=trace)

    run_policy(scenario, policy(), 2016, trace=trace, checkpoint_every=10, checkpoint_path=path)
    return restore(), path, restore


def test_checkpoint_save_glap_300pms(benchmark, glap_300_checkpoint):
    from repro.checkpoint import save_checkpoint

    env, path, _ = glap_300_checkpoint
    benchmark.pedantic(save_checkpoint, args=(env, path), rounds=10, iterations=1, warmup_rounds=1)
    benchmark.extra_info["bytes"] = path.stat().st_size


def test_checkpoint_restore_glap_300pms(benchmark, glap_300_checkpoint):
    _, path, restore = glap_300_checkpoint
    env = benchmark.pedantic(restore, rounds=5, iterations=1, warmup_rounds=1)
    assert env.eval_rounds_done == 10 and len(env.policy.models) == 300
    benchmark.extra_info["bytes"] = path.stat().st_size
