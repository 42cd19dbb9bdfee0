"""Differential: the store's derived-state planes vs recompute vs objects.

``ColumnarStore`` caches what a gossip contact reads — per-PM absolute
demand, per-VM absolute demand and action code — as plain lists behind
one dirty flag (DESIGN.md §5f).  This suite drives the tests-only
per-object layout (``_reference_datacenter.py``) and the production
data centre through the same random history over *every*
writer of demand or placement (round advance, migration,
detach/respawn, direct monitor samples, sleep/wake, wholesale
placement, checkpoint restore) and after every step requires

* no clean plane differs from a fresh recompute in any bit, before and
  after the scalar readers have run;
* the planes equal the uncached per-PM numpy view *and* the
  reference's per-object sums, value for value;
* every scalar reader built on the planes (``is_overloaded``,
  ``total_utilization``, ``peak_utilization``, ``cpu_utilization``,
  ``fits``, ``pm_state``, Alg. 3's ``_find_vm``, GRMP's ``_admits`` /
  ``_largest_first``, the overload observer's mask) answers exactly as
  the reference's reader specification does on the reference objects.

The history also runs whole Alg. 3 exchanges (``"exchange"``, and
``"round"``: one straight after a round's demands land, planes dirty;
every PM with its own model): ``GlapConsolidationProtocol.execute_round`` on the
store's planes against ``reference_exchange`` on the objects — same
sender, same VMs chosen, same traced ``eviction`` / ``pm_sleep`` events
(Q_in and capacity rejects, relief, switch-off), same counters, and
the migrations land in the same placement, which the checks above then
read.

A writer that forgets the dirty flag, or a refresh that sums in another
order, diverges on some generated history.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.base import ConsolidationPolicy
from repro.baselines.grmp import GrmpConfig, GrmpProtocol
from repro.checkpoint.snapshot import RunEnv, _capture_state, _restore_state
from repro.core.consolidation import GlapConsolidationProtocol
from repro.core.qlearning import QLearningModel
from repro.core.qtable import QTable
from repro.core.states import N_STATES, pm_state
from repro.datacenter.cluster import DataCenter
from repro.obs.observers import OverloadTraceObserver
from repro.obs.tracer import NULL_TRACER, RecordingTracer
from repro.simulator.observer import InvariantViolation, check_datacenter_invariants
from tests.conftest import make_simulation, make_trace
from tests.datacenter._reference_datacenter import (
    ReferenceDataCenter,
    reference_admits,
    reference_check_invariants,
    reference_exchange,
    reference_find_vm,
    reference_largest_first,
    reference_pm_state,
    reference_vm_action,
)

N_ROUNDS = 32


class _StatelessPolicy(ConsolidationPolicy):
    name = "stateless"

    def attach(self, dc, sim, streams, warmup_rounds):  # pragma: no cover
        pass


COUNTERS = ("rejections_by_q_in", "rejections_by_capacity", "migrations_done", "switch_offs")


def make_model(seed: int) -> QLearningModel:
    """A model with enough random ``Q_out`` entries that ``pi_out`` has
    real preferences (and ties) over the actions a PM offers, and a
    ``Q_in`` a third of whose pairs are known, 40 % of those negative, so
    the admission test rejects now and then."""
    rng = np.random.default_rng(seed)
    model = QLearningModel()
    for _ in range(400):
        model.q_out.set(
            int(rng.integers(N_STATES)),
            int(rng.integers(N_STATES)),
            float(rng.integers(-3, 4)),
        )
    known = rng.random((N_STATES, N_STATES)) < 1 / 3
    model.q_in = QTable.from_dict({
        str(s): {str(a): float(rng.integers(-2, 3)) for a in np.flatnonzero(known[s])}
        for s in range(N_STATES)
    })
    return model


#: Built once: PM ``i`` of a history with seed ``s`` uses model
#: ``(s + i) % 5``, so neighbouring PMs never share one.
MODELS = [make_model(k) for k in range(5)]


class _FixedPeer:
    """The sampler of an exchange whose peer the history chose."""

    peer = None

    def select_peer(self, node, sim):
        return self.peer


class Pair:
    """Twin data centres plus what the readers under test need."""

    def __init__(self, n_pms: int, n_vms: int, seed: int) -> None:
        trace = make_trace(n_vms, N_ROUNDS, seed)
        self.obj = ReferenceDataCenter(n_pms, n_vms, trace)
        self.col = DataCenter(n_pms, n_vms, trace)
        self.env = RunEnv(
            None, _StatelessPolicy(), seed, self.col, make_simulation(self.col), None
        )
        self.snapshots: dict = {}
        self.models = {i: MODELS[(seed + i) % len(MODELS)] for i in range(n_pms)}
        self.glap = GlapConsolidationProtocol(self.col, self.models, sampler=_FixedPeer())
        self.grmp = GrmpProtocol(self.col, sampler=None, config=GrmpConfig())
        #: The reference exchanges' tallies, summed (what a history covered).
        self.tally: dict = {}

    def apply(self, action) -> None:
        if action[0] in ("exchange", "round"):
            if action[0] == "round":  # a round's demands land, then the contact
                self.apply(("advance",))
            self.exchange(action[1] % self.col.n_pms, action[2] % self.col.n_pms)
            return
        outcomes = [self._apply_one(dc, action) for dc in (self.obj, self.col)]
        assert outcomes[0] == outcomes[1], f"layouts disagreed on {action}"

    def exchange(self, p: int, q: int) -> None:
        """PM ``p`` runs one Alg. 3 exchange with ``q`` on both layouts."""
        if p == q:
            return
        sim = self.env.sim
        sim.tracer = tracer = RecordingTracer()
        self.glap.sampler.peer = q
        before = [getattr(self.glap, name) for name in COUNTERS]
        self.glap.execute_round(sim.node(p), sim)
        sim.tracer = NULL_TRACER
        want, tally = reference_exchange(self.models, self.obj, p, q, sim.round_index)
        assert tracer.events == want, f"exchange {p} -> {q}"
        assert [
            getattr(self.glap, name) - old for name, old in zip(COUNTERS, before)
        ] == [tally[name] for name in COUNTERS]
        for name, count in tally.items():
            self.tally[name] = self.tally.get(name, 0) + count

    def _apply_one(self, dc, action):
        kind = action[0]
        try:
            if kind == "advance":
                if dc.current_round + 1 >= N_ROUNDS:
                    return None
                dc.advance_round()
            elif kind == "migrate":
                dc.migrate(action[1] % dc.n_vms, action[2] % dc.n_pms)
            elif kind == "detach":
                vm = dc.vm(action[1] % dc.n_vms)
                if vm.host_id is not None:
                    dc.pm(vm.host_id).remove_vm(vm.vm_id)
            elif kind == "respawn":
                vm = dc.vm(action[1] % dc.n_vms)
                if vm.host_id is None:
                    dc.pm(action[2] % dc.n_pms).add_vm(vm)
            elif kind == "observe":
                dc.vm(action[1] % dc.n_vms).monitor.observe(np.array(action[2:4]))
            elif kind == "sleep":
                dc.pm(action[1] % dc.n_pms).asleep = True
            elif kind == "wake":
                dc.pm(action[1] % dc.n_pms).asleep = False
            elif kind == "place":
                hosts = np.random.default_rng(action[1]).integers(
                    0, dc.n_pms, size=dc.n_vms
                )
                dc.apply_placement(hosts)
            elif kind == "snapshot":
                # Production goes through the checkpoint's JSON; the
                # reference copies its objects' state.
                if all(vm.host_id is not None for vm in dc.vms):
                    self.snapshots[dc] = (
                        json.loads(json.dumps(_capture_state(self.env)))
                        if dc is self.col
                        else dc.snapshot()
                    )
            elif kind == "restore":
                if dc in self.snapshots:
                    if dc is self.col:
                        _restore_state(self.env, self.snapshots[dc])
                    else:
                        dc.restore(self.snapshots[dc])
            else:  # pragma: no cover - strategy bug
                raise AssertionError(f"unknown action {kind}")
        except (ValueError, KeyError, RuntimeError) as exc:
            return type(exc)
        return None

    # -- the checks ----------------------------------------------------------

    def check(self) -> None:
        store = self.col.store
        assert store.stale_planes() == []  # before any reader refreshes
        self.check_readers()
        assert not store._planes_dirty  # the readers filled the planes
        assert store.stale_planes() == []
        self.check_planes()
        assert invariant_verdict(reference_check_invariants, self.obj) == invariant_verdict(
            check_datacenter_invariants, self.col
        )

    def check_readers(self) -> None:
        obj, col = self.obj, self.col
        for po, pc in zip(obj.pms, col.pms):
            for use_average in (False, True):
                assert pc.is_overloaded(use_average=use_average) == po.is_overloaded(
                    use_average=use_average
                )
                assert pm_state(pc, use_average=use_average) == reference_pm_state(
                    po, use_average=use_average
                )
            assert pc.total_utilization() == po.total_utilization()
            assert pc.peak_utilization() == po.peak_utilization()
            assert pc.cpu_utilization() == po.cpu_utilization()
            model = self.models[pc.pm_id]
            assert self.glap._find_vm(model, pc.pm_id) == found(reference_find_vm(model, po))
            assert [vm.vm_id for vm in self.grmp._largest_first(pc)] == [
                vm.vm_id for vm in reference_largest_first(po)
            ]
            # Admission of a few VMs (hosted here or not) at two headrooms.
            for v in range(pc.pm_id % 3, col.n_vms, 3):
                for headroom in (0.0, 0.25):
                    assert pc.fits(col.vm(v), headroom=headroom) == po.fits(
                        obj.vm(v), headroom=headroom
                    )
                assert self.grmp._admits(pc, col.vm(v)) == reference_admits(
                    po, obj.vm(v), self.grmp.config.upper_threshold
                )
        assert OverloadTraceObserver(col, NULL_TRACER)._now() == frozenset(
            po.pm_id for po in obj.pms if not po.asleep and po.is_overloaded()
        )

    def check_planes(self) -> None:
        obj, col = self.obj, self.col
        store = col.store
        for name, plane in store.derive_planes().items():
            assert getattr(store, name) == plane, name
        for po, pc in zip(obj.pms, col.pms):
            i = pc.pm_id
            cur = [store.pm_cur_cpu[i], store.pm_cur_mem[i]]
            avg = [store.pm_avg_cpu[i], store.pm_avg_mem[i]]
            assert cur == pc.demand_vector().tolist() == po.demand_vector().tolist()
            assert (
                avg
                == pc.demand_vector(use_average=True).tolist()
                == po.demand_vector(use_average=True).tolist()
            )
        for vo in obj.vms:
            v = vo.vm_id
            assert [store.vm_cur_cpu[v], store.vm_cur_mem[v]] == (
                vo.current_demand_abs().tolist()
            )
            assert [store.vm_avg_cpu[v], store.vm_avg_mem[v]] == (
                vo.average_demand_abs().tolist()
            )
            assert store.vm_action[v] == reference_vm_action(vo, use_average=True)


def found(chosen):
    return None if chosen is None else (chosen[0], chosen[1].vm_id)


def invariant_verdict(check, dc):
    """``check`` is the layout's own checker (``InvariantViolation`` is
    an ``AssertionError``)."""
    try:
        check(dc)
        return None
    except AssertionError:
        return "violation"


fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32)

actions = st.one_of(
    st.tuples(st.just("advance")),
    st.tuples(st.just("migrate"), st.integers(0, 63), st.integers(0, 63)),
    st.tuples(st.just("migrate"), st.integers(0, 63), st.integers(0, 63)),
    st.tuples(st.just("detach"), st.integers(0, 63)),
    st.tuples(st.just("respawn"), st.integers(0, 63), st.integers(0, 63)),
    st.tuples(st.just("observe"), st.integers(0, 63), fractions, fractions),
    st.tuples(st.just("sleep"), st.integers(0, 63)),
    st.tuples(st.just("wake"), st.integers(0, 63)),
    st.tuples(st.just("place"), st.integers(0, 2**16)),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("restore")),
    st.tuples(st.just("exchange"), st.integers(0, 63), st.integers(0, 63)),
    st.tuples(st.just("round"), st.integers(0, 63), st.integers(0, 63)),
)

histories = dict(
    n_pms=st.integers(min_value=2, max_value=7),
    ratio=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**20),
    sequence=st.lists(actions, min_size=1, max_size=25),
)


def run_history(n_pms, ratio, seed, sequence) -> Pair:
    pair = Pair(n_pms, n_pms * ratio, seed)
    # Demands land and the planes are read while the store is still
    # empty, so the first placement is the vectorised install and it
    # finds *clean* planes to invalidate.
    pair.apply(("advance",))
    pair.check()
    pair.apply(("place", seed))
    pair.check()
    for action in sequence:
        pair.apply(action)
        pair.check()
    return pair


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(**histories)
def test_random_histories_keep_planes_and_readers_exact(n_pms, ratio, seed, sequence):
    run_history(n_pms, ratio, seed, sequence)


@pytest.mark.slow
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(**histories)
def test_random_histories_keep_planes_and_readers_exact_deep(n_pms, ratio, seed, sequence):
    run_history(n_pms, ratio, seed, sequence)


def test_canned_history_touches_every_writer():
    run_history(
        5,
        3,
        11,
        [
            ("migrate", 0, 1),
            ("advance",),
            ("snapshot",),
            ("migrate", 3, 2),
            ("observe", 7, 0.99, 0.5),
            ("detach", 4),
            ("advance",),
            ("respawn", 4, 0),
            ("sleep", 3),
            ("restore",),
            ("migrate", 9, 4),
            ("place", 5),
            ("wake", 3),
            ("advance",),
        ],
    )


def test_canned_exchanges_reach_every_outcome_of_a_step():
    """Memory-heavy VMs piled onto PM 0, then exchanges: overload relief,
    consolidation towards switch-off, a sleeping receiver, and MIGRATE
    steps that end on Q_in, on capacity and on relief all occur (the
    random histories rarely fill a PM), each checked step by step."""
    sequence = [("observe", v, 0.5, 0.9) for v in range(16)]
    sequence += [("migrate", v, 0) for v in range(10)]
    sequence += [
        ("exchange", 0, 1), ("exchange", 2, 3), ("exchange", 1, 2), ("exchange", 3, 0),
        ("sleep", 3), ("exchange", 0, 3), ("exchange", 2, 3), ("exchange", 1, 0),
    ]
    tally = run_history(4, 4, 2, sequence).tally
    assert all(count > 0 for count in tally.values()), tally


def layout(n_vms, hosts):
    """Actions that unplace every VM, then place and load them in order:
    ``hosts[pm]`` lists the ``(cpu, mem)`` demand fractions of its VMs."""
    sequence = [("detach", v) for v in range(n_vms)]
    vm_ids = iter(range(n_vms))
    for pm, demands in hosts.items():
        for cpu, mem in demands:
            v = next(vm_ids)
            sequence += [("respawn", v, pm), ("observe", v, cpu, mem)]
    return sequence


# 5 x 500 + 0.32 x 500 MIPS is exactly 2660.0, a ProLiant's CPU, and
# 6 x 613 + (418 / 613) x 613 MB exactly its 4096.0 MB.
FULL_CPU = [(1.0, 0.1)] * 5 + [(0.32, 0.1)]
FULL_MEM = [(0.1, 1.0)] * 6 + [(0.1, 418 / 613)]


@pytest.mark.parametrize(
    "hosts, p, q, expect",
    [
        # Exactly at capacity is overloaded: PM 0 sheds (relief branch).
        ({0: FULL_CPU, 1: [(0.1, 0.1)]}, 0, 1, {"migrations_done": 1, "relieved": 1}),
        # A VM that fills the receiver exactly to capacity fits.
        ({0: FULL_CPU[1:], 1: FULL_CPU[:1]}, 1, 0, {"migrations_done": 1, "switch_offs": 1}),
        ({0: FULL_MEM[1:], 1: FULL_MEM[:1]}, 1, 0, {"migrations_done": 1, "switch_offs": 1}),
        # Equal totals: the initiator sends (PM 1's VM leaves, PM 1 sleeps).
        ({0: [(0.3, 0.3)], 1: [(0.3, 0.3)]}, 1, 0, {"migrations_done": 1, "switch_offs": 1}),
        # Totals are capped per resource: the overloaded peer (1.0 + 0.01)
        # is the less utilised side against 0.60 + 0.54, so *it* sends.
        (
            {0: [(0.8, 0.9)] * 4, 1: [(1.0, 0.01)] * 8}, 0, 1,
            {"migrations_done": 2, "rejections_by_capacity": 1},
        ),
    ],
    ids=[
        "exactly_full_is_overloaded", "exactly_filling_cpu_fits", "exactly_filling_mem_fits",
        "tie_to_initiator", "capped_totals",
    ],
)
def test_boundary_exchanges_match_the_reference(hosts, p, q, expect):
    n_pms, ratio = 3, 4
    tally = run_history(n_pms, ratio, 0, layout(n_pms * ratio, hosts) + [("exchange", p, q)]).tally
    assert {name: tally[name] for name in expect} == expect


def test_monitor_write_is_seen_by_the_next_overload_read():
    """Pinned regression: ``vm.monitor.observe`` writes the aliased demand
    rows directly; the PM predicate read right after must see it."""
    dc = DataCenter(2, 8, make_trace(8, 4, 1))
    dc.apply_placement([0] * 8)
    dc.advance_round()
    pm = dc.pm(0)
    for vm in pm.vms:
        vm.monitor.observe(np.array([0.1, 0.1]))
    assert not pm.is_overloaded()  # the planes are clean from here on
    for vm in pm.vms:
        vm.monitor.observe(np.array([0.2, 1.0]))  # 8 x 613 MB > 4096 MB
    assert pm.is_overloaded()
    assert pm.total_utilization() == 8 * (0.2 * 500.0) / 2660.0 + 1.0
    check_datacenter_invariants(dc)


def test_stale_plane_raises_invariant_violation():
    """The invariant check compares the planes the protocols read, not two
    ``bincount``s: a write that skips the dirty flag is a violation."""
    dc = DataCenter(3, 6, make_trace(6, 4, 2))
    dc.place_randomly(np.random.default_rng(0))
    dc.advance_round()
    dc.pm(0).is_overloaded()  # fills the planes
    check_datacenter_invariants(dc)
    dc.store.cur[0, 0] = 0.123456  # behind the store's back
    with pytest.raises(InvariantViolation, match="stale"):
        check_datacenter_invariants(dc)
    dc.store.invalidate_planes()
    check_datacenter_invariants(dc)
