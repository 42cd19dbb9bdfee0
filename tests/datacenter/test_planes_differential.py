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
  ``_largest_first``) answers exactly as the reference's reader
  specification does on the reference objects.

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
from repro.core.states import N_STATES, pm_state
from repro.datacenter.cluster import DataCenter
from repro.simulator.observer import InvariantViolation, check_datacenter_invariants
from tests.conftest import make_simulation, make_trace
from tests.datacenter._reference_datacenter import (
    ReferenceDataCenter,
    reference_admits,
    reference_check_invariants,
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


def make_model(seed: int) -> QLearningModel:
    """A model with enough random ``Q_out`` entries that ``pi_out`` has
    real preferences (and ties) over the actions a PM offers."""
    rng = np.random.default_rng(seed)
    model = QLearningModel()
    for _ in range(400):
        model.q_out.set(
            int(rng.integers(N_STATES)),
            int(rng.integers(N_STATES)),
            float(rng.integers(-3, 4)),
        )
    return model


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
        self.model = make_model(seed)
        self.glap = GlapConsolidationProtocol(self.col, {}, sampler=None)
        self.grmp = GrmpProtocol(self.col, sampler=None, config=GrmpConfig())

    def apply(self, action) -> None:
        outcomes = [self._apply_one(dc, action) for dc in (self.obj, self.col)]
        assert outcomes[0] == outcomes[1], f"layouts disagreed on {action}"

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
            assert found(self.glap._find_vm(self.model, pc)) == found(
                reference_find_vm(self.model, po)
            )
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
)

histories = dict(
    n_pms=st.integers(min_value=2, max_value=7),
    ratio=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**20),
    sequence=st.lists(actions, min_size=1, max_size=25),
)


def run_history(n_pms, ratio, seed, sequence) -> None:
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
