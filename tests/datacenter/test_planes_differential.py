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
* every scalar reader built on the planes (``pm_overloaded``,
  ``pm_total_utilization``, ``pm_peak_utilization``,
  ``pm_cpu_utilization``, ``pm_fits``, the state codes, Alg. 3's
  ``_find_vm``, the overload observer's mask) answers exactly as the
  reference's reader specification does on the reference objects;
* placement (each PM's member order), sleep flags, the
  ``vm_cpu_degraded`` / ``vm_migrations`` columns and every
  ``MigrationRecord`` (floats compared by ``float.hex``) equal the
  reference's, so each ``DataCenter.migrate`` — priced and accounted by
  id on the store — matches the reference ``migrate``, which prices with
  ``reference_cost_of`` on the objects; a refused ``migrate`` raises
  the same exception type with the same message on both.

The history also runs whole Alg. 3 exchanges (``"exchange"``, and
``"round"``: one straight after a round's demands land, planes dirty;
every PM with its own model): ``GlapConsolidationProtocol.execute_round`` on the
store's planes against ``reference_exchange`` on the objects — same
sender, same VMs chosen, same traced ``eviction`` / ``pm_sleep`` events
(Q_in and capacity rejects, relief, switch-off), same counters, and
the migrations land in the same placement, which the checks above then
read.  Whole GRMP exchanges run the same way (``"grmp"`` and
``"grmp_round"``): ``GrmpProtocol.execute_round`` on the planes against
``reference_grmp_exchange`` on the objects — same branch and sender,
same VMs migrated in the same order, same traced ``migration`` /
``pm_sleep`` events, same ``switch_offs``.  So do the rival policies:
PABFD control steps (``"pabfd"``, ``"pabfd_round"``; one controller
per history, wake-ups allowed) against ``reference_pabfd_step`` — same
migrations in the same order, same ``pm_sleep`` / ``pm_wake`` events,
same ``wake_ups`` / ``switch_offs`` and CPU histories, bit for bit —
and EcoCloud rounds of one PM (``"ecocloud"``, ``"ecocloud_round"``)
against ``reference_ecocloud_contact`` drawing from a twin generator:
same events, same broadcasts and ``switch_offs``, and the same
generator state after the round.

The production side writes each of these straight into the store:
``add_member`` / ``remove_member`` for detach and respawn, the
``pm_asleep`` column for sleep and wake, the ``conftest.observe``
sample for a direct monitor write, and a detach of every VM before a
wholesale ``apply_placement`` (it places an empty data centre only).

A writer that forgets the dirty flag, or a refresh that sums in another
order, diverges on some generated history.
"""

from __future__ import annotations

import json
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.base import ConsolidationPolicy
from repro.baselines.ecocloud import EcoCloudConfig, EcoCloudProtocol
from repro.baselines.grmp import GrmpConfig, GrmpProtocol
from repro.baselines.pabfd import PabfdConfig, PabfdController
from repro.checkpoint.snapshot import RunEnv, _capture_state, _restore_state
from repro.core.consolidation import GlapConsolidationProtocol
from repro.core.qlearning import QLearningModel
from repro.core.qtable import QTable
from repro.core.states import N_STATES, state_code_fast
from repro.datacenter.cluster import DataCenter
from repro.obs.observers import OverloadTraceObserver
from repro.obs.tracer import NULL_TRACER, RecordingTracer
from repro.simulator.observer import InvariantViolation, check_datacenter_invariants
from repro.util.io import iter_json
from tests._mutants import mutant_function, replace_once
from tests.conftest import make_simulation, make_trace, observe, overloaded
from tests.datacenter._reference_datacenter import (
    ReferenceDataCenter,
    ReferencePabfd,
    reference_check_invariants,
    reference_ecocloud_contact,
    reference_exchange,
    reference_find_vm,
    reference_grmp_exchange,
    reference_pabfd_step,
    reference_pm_state,
    reference_vm_action,
)

N_ROUNDS = 32


class _StatelessPolicy(ConsolidationPolicy):
    name = "stateless"

    def attach(self, dc, sim, streams, warmup_rounds):  # pragma: no cover
        pass


COUNTERS = ("rejections_by_q_in", "rejections_by_capacity", "migrations_done", "switch_offs")

#: A PABFD that acts at every step and may wake hosts.
PABFD_CONFIG = PabfdConfig(control_period_rounds=1, allow_wake_ups=True)

#: Contact kind -> the ``Pair`` method that runs it; ``<kind>_round``
#: (``"round"`` for Alg. 3) runs it straight after a round's demands land.
CONTACTS = {
    "exchange": "exchange", "round": "exchange",
    "grmp": "grmp_exchange", "grmp_round": "grmp_exchange",
    "pabfd": "pabfd_step", "pabfd_round": "pabfd_step",
    "ecocloud": "ecocloud_contact", "ecocloud_round": "ecocloud_contact",
}


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
        self.grmp = GrmpProtocol(self.col, sampler=_FixedPeer(), config=GrmpConfig())
        self.grmp.enabled = True
        #: The branch each GRMP exchange took, as ``(kind, sender, receiver)``.
        self.grmp_branches: list = []
        for kind in ("pack", "relieve"):
            setattr(self.grmp, f"_{kind}", self._spy(kind, getattr(self.grmp, f"_{kind}")))
        self.pabfd = PabfdController(self.col, PABFD_CONFIG)
        self.ref_pabfd = ReferencePabfd(self.obj, PABFD_CONFIG)
        self.pabfd.enabled = self.ref_pabfd.enabled = True
        self.ecocloud = EcoCloudProtocol(
            self.col, EcoCloudConfig(), np.random.default_rng(seed)
        )
        self.ecocloud.enabled = True
        self.ref_ecocloud_rng = np.random.default_rng(seed)
        #: The reference exchanges' tallies, summed (what a history covered).
        self.tally: dict = {}

    def _spy(self, kind, method):
        def spy(sender, receiver, sim):
            self.grmp_branches.append((kind, sender, receiver))
            method(sender, receiver, sim)
        return spy

    def apply(self, action) -> None:
        kind = action[0]
        if kind in CONTACTS:
            if kind.endswith("round"):  # a round's demands land, then the contact
                self.apply(("advance",))
            getattr(self, CONTACTS[kind])(*(i % self.col.n_pms for i in action[1:]))
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
        self._add(tally)

    def grmp_exchange(self, p: int, q: int) -> None:
        """PM ``p`` runs one GRMP exchange with ``q`` on both layouts."""
        if p == q:
            return
        sim = self.env.sim
        sim.tracer = self.col.tracer = tracer = RecordingTracer()
        self.grmp.sampler.peer = q
        self.grmp_branches.clear()
        before = self.grmp.switch_offs
        self.grmp.execute_round(sim.node(p), sim)
        sim.tracer = self.col.tracer = NULL_TRACER
        branch, want, tally = reference_grmp_exchange(
            self.obj, p, q, sim.round_index, self.grmp.config.upper_threshold
        )
        assert self.grmp_branches == [branch], f"GRMP exchange {p} -> {q}"
        assert tracer.events == want, f"GRMP exchange {p} -> {q}"
        assert self.grmp.switch_offs - before == tally["switch_offs"]
        self._add({"grmp_" + branch[0]: 1, **{f"grmp_{k}": n for k, n in tally.items()}})

    def pabfd_step(self) -> None:
        """One PABFD control step on both layouts."""
        sim = self.env.sim
        sim.tracer = self.col.tracer = tracer = RecordingTracer()
        self.pabfd.step(sim)
        sim.tracer = self.col.tracer = NULL_TRACER
        want = reference_pabfd_step(self.ref_pabfd, sim.round_index)
        assert tracer.events == want, "PABFD step"
        ctl, ref = self.pabfd, self.ref_pabfd
        assert (ctl.wake_ups, ctl.switch_offs) == (ref.wake_ups, ref.switch_offs)
        assert {p: hexes(h) for p, h in ctl._history.items()} == {
            p: hexes(h) for p, h in ref._history.items()
        }
        self._add({f"pabfd_{name}": n for name, n in ref.tally.items()})
        ref.tally.clear()

    def ecocloud_contact(self, p: int) -> None:
        """PM ``p`` runs one EcoCloud round on both layouts."""
        sim = self.env.sim
        sim.tracer = self.col.tracer = tracer = RecordingTracer()
        broadcasts = sim.network.stats.per_kind.get("ecocloud/broadcast", 0)
        before = self.ecocloud.switch_offs
        self.ecocloud.execute_round(sim.node(p), sim)
        sim.tracer = self.col.tracer = NULL_TRACER
        want, tally = reference_ecocloud_contact(
            self.obj, self.ecocloud.config, self.ref_ecocloud_rng, p, sim.round_index
        )
        assert tracer.events == want, f"EcoCloud round of {p}"
        assert self.ecocloud.switch_offs - before == tally["switch_offs"]
        assert (
            sim.network.stats.per_kind.get("ecocloud/broadcast", 0) - broadcasts
            == tally["broadcasts"]
        )
        assert self.ecocloud._rng.bit_generator.state == self.ref_ecocloud_rng.bit_generator.state
        self._add({f"ecocloud_{name}": n for name, n in tally.items()})

    def _add(self, tally) -> None:
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
            elif kind in ("detach", "respawn", "observe", "sleep", "wake", "place"):
                (write_store if dc is self.col else write_objects)(dc, action)
            elif kind == "snapshot":
                # Production goes through the checkpoint's JSON; the
                # reference copies its objects' state.
                if np.all(dc.placement() >= 0):
                    self.snapshots[dc] = (
                        json.loads("".join(iter_json(_capture_state(self.env))))
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
            return type(exc), str(exc)
        return None

    # -- the checks ----------------------------------------------------------

    def check(self) -> None:
        store = self.col.store
        assert store.stale_planes() == []  # before any reader refreshes
        self.check_readers()
        assert not store._planes_dirty  # the readers filled the planes
        assert store.stale_planes() == []
        self.check_planes()
        self.check_columns()
        assert invariant_verdict(reference_check_invariants, self.obj) == invariant_verdict(
            check_datacenter_invariants, self.col
        )

    def check_readers(self) -> None:
        obj, store = self.obj, self.col.store
        for po in obj.pms:
            i = po.pm_id
            # The refreshing readers first: they fill stale planes.
            assert store.pm_peak_utilization(i) == po.peak_utilization()
            spec = store.pm_spec
            averages = (store.pm_avg_cpu[i] / spec.cpu_mips, store.pm_avg_mem[i] / spec.mem_mb)
            for use_average, (cpu, mem) in ((False, store.pm_utilization(i)), (True, averages)):
                assert (cpu >= 1.0 or mem >= 1.0) == po.is_overloaded(use_average=use_average)
                assert state_code_fast(cpu, mem) == reference_pm_state(
                    po, use_average=use_average
                )
            assert store.pm_overloaded(i) == po.is_overloaded()
            assert store.pm_total_utilization(i) == po.total_utilization()
            assert store.pm_cpu_utilization(i) == po.cpu_utilization()
            model = self.models[i]
            assert self.glap._find_vm(model, i) == found(reference_find_vm(model, po))
            # Admission of a few VMs (hosted here or not).
            for v in range(i % 3, store.n_vms, 3):
                assert store.pm_fits(i, v) == po.fits(obj.vm(v))
        assert OverloadTraceObserver(self.col, NULL_TRACER)._now() == frozenset(
            po.pm_id for po in obj.pms if not po.asleep and po.is_overloaded()
        )

    def check_planes(self) -> None:
        obj, col = self.obj, self.col
        store = col.store
        for name, plane in store.derive_planes().items():
            assert getattr(store, name) == plane, name
        for po in obj.pms:
            i = po.pm_id
            cur = [store.pm_cur_cpu[i], store.pm_cur_mem[i]]
            avg = [store.pm_avg_cpu[i], store.pm_avg_mem[i]]
            assert cur == po.demand_vector().tolist()
            assert avg == po.demand_vector(use_average=True).tolist()
        for vo in obj.vms:
            v = vo.vm_id
            assert [store.vm_cur_cpu[v], store.vm_cur_mem[v]] == (
                vo.current_demand_abs().tolist()
            )
            assert [store.vm_avg_cpu[v], store.vm_avg_mem[v]] == (
                vo.average_demand_abs().tolist()
            )
            assert store.vm_action[v] == reference_vm_action(vo, use_average=True)

    def check_columns(self) -> None:
        """What a migration writes: placement in member order, sleep
        flags, the per-VM accounting columns and the migration log."""
        obj, store = self.obj, self.col.store
        assert store.members == [[vm.vm_id for vm in pm.vms] for pm in obj.pms]
        assert store.pm_asleep.tolist() == [pm.asleep for pm in obj.pms]
        assert hexes(store.vm_cpu_degraded.tolist()) == hexes(
            [vm.cpu_degraded_mips_s for vm in obj.vms]
        )
        assert store.vm_migrations.tolist() == [vm.migrations for vm in obj.vms]
        assert [record_hex(r) for r in self.col.migrations] == [
            record_hex(r) for r in obj.migrations
        ]
        # What the tracer and the checkpoint encode: Python numbers only.
        assert {type(x) for r in self.col.migrations for x in astuple(r)} <= {int, float}


def write_objects(dc: ReferenceDataCenter, action) -> None:
    """A writer of placement, demand or sleep state, through the objects."""
    kind = action[0]
    if kind == "detach":
        vm = dc.vm(action[1] % dc.n_vms)
        if vm.host_id is not None:
            dc.pm(vm.host_id).remove_vm(vm.vm_id)
    elif kind == "respawn":
        vm = dc.vm(action[1] % dc.n_vms)
        if vm.host_id is None:
            dc.pm(action[2] % dc.n_pms).add_vm(vm)
    elif kind == "observe":
        dc.vm(action[1] % dc.n_vms).monitor.observe(np.array(action[2:4]))
    elif kind in ("sleep", "wake"):
        dc.pm(action[1] % dc.n_pms).asleep = kind == "sleep"
    else:  # "place": every VM re-placed, in ascending id order
        dc.apply_placement(np.random.default_rng(action[1]).integers(0, dc.n_pms, size=dc.n_vms))


def write_store(dc: DataCenter, action) -> None:
    """The same writer, straight into the store."""
    kind, store = action[0], dc.store
    if kind == "detach":
        v = action[1] % dc.n_vms
        if store.host[v] >= 0:
            store.remove_member(int(store.host[v]), v)
    elif kind == "respawn":
        v = action[1] % dc.n_vms
        if store.host[v] < 0:
            store.add_member(action[2] % dc.n_pms, v)
    elif kind == "observe":
        observe(store, action[1] % dc.n_vms, *action[2:4], round_seconds=0.0)
    elif kind in ("sleep", "wake"):
        store.pm_asleep[action[1] % dc.n_pms] = kind == "sleep"
    else:  # "place": unplace every VM, then the empty-store install
        for v in range(dc.n_vms):
            if store.host[v] >= 0:
                store.remove_member(int(store.host[v]), v)
        dc.apply_placement(np.random.default_rng(action[1]).integers(0, dc.n_pms, size=dc.n_vms))


def hexes(values):
    return [float(x).hex() for x in values]


def record_hex(record):
    """A ``MigrationRecord`` with its floats as ``float.hex``."""
    return (
        record.round_index, record.vm_id, record.src_pm, record.dst_pm,
        *hexes((record.duration_s, record.energy_j, record.degraded_mips_s)),
    )


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
    st.tuples(st.just("grmp"), st.integers(0, 63), st.integers(0, 63)),
    st.tuples(st.just("grmp_round"), st.integers(0, 63), st.integers(0, 63)),
    st.tuples(st.just("pabfd")),
    st.tuples(st.just("pabfd_round")),
    st.tuples(st.just("ecocloud"), st.integers(0, 63)),
    st.tuples(st.just("ecocloud_round"), st.integers(0, 63)),
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


#: Histories of the rival policies' steps between demand, placement and
#: sleep writers.
rival_actions = st.one_of(
    st.tuples(st.just("advance")),
    st.tuples(st.just("migrate"), st.integers(0, 63), st.integers(0, 63)),
    st.tuples(st.just("observe"), st.integers(0, 63), fractions, fractions),
    st.tuples(st.just("sleep"), st.integers(0, 63)),
    st.tuples(st.just("wake"), st.integers(0, 63)),
    st.tuples(st.just("pabfd")),
    st.tuples(st.just("pabfd_round")),
    st.tuples(st.just("ecocloud"), st.integers(0, 63)),
    st.tuples(st.just("ecocloud_round"), st.integers(0, 63)),
)


@pytest.mark.slow
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(**{**histories, "sequence": st.lists(rival_actions, min_size=1, max_size=25)})
def test_random_rival_policy_histories_match_the_reference_deep(n_pms, ratio, seed, sequence):
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
    """Pinned regression: a monitor sample written straight into the
    demand rows (and the planes marked stale) is seen by the PM predicate
    read right after."""
    dc = DataCenter(2, 8, make_trace(8, 4, 1))
    dc.apply_placement([0] * 8)
    dc.advance_round()
    for v in range(8):
        observe(dc.store, v, 0.1, 0.1)
    assert not overloaded(dc, 0)  # the planes are clean from here on
    for v in range(8):
        observe(dc.store, v, 0.2, 1.0)  # 8 x 613 MB > 4096 MB
    assert overloaded(dc, 0)
    assert dc.store.pm_total_utilization(0) == 8 * (0.2 * 500.0) / 2660.0 + 1.0
    check_datacenter_invariants(dc)


def test_stale_plane_raises_invariant_violation():
    """The invariant check compares the planes the protocols read, not two
    ``bincount``s: a write that skips the dirty flag is a violation."""
    dc = DataCenter(3, 6, make_trace(6, 4, 2))
    dc.place_randomly(np.random.default_rng(0))
    dc.advance_round()
    overloaded(dc, 0)  # fills the planes
    check_datacenter_invariants(dc)
    dc.store.cur[0, 0] = 0.123456  # behind the store's back
    with pytest.raises(InvariantViolation, match="stale"):
        check_datacenter_invariants(dc)
    dc.store.invalidate_planes()
    check_datacenter_invariants(dc)


GRMP_CANNED = [("observe", v, 0.5, 0.9) for v in range(16)]
GRMP_CANNED += [("migrate", v, 0) for v in range(10)]
GRMP_CANNED += [
    ("grmp", 0, 1), ("grmp", 2, 3), ("grmp", 1, 2), ("grmp", 3, 0), ("sleep", 3),
    ("grmp", 0, 3), ("grmp", 2, 3), ("grmp", 1, 0), ("grmp_round", 0, 2), ("grmp_round", 1, 2),
]


def test_canned_grmp_exchanges_reach_every_outcome():
    """Memory-heavy VMs piled onto PM 0, then GRMP exchanges, on clean
    planes and straight after a round's demands land: relief, packing
    with refusals and a switch-off, and an asleep receiver all occur,
    each checked step by step."""
    tally = run_history(4, 4, 2, GRMP_CANNED).tally
    assert all(tally[f"grmp_{name}"] > 0 for name in (
        "relieve", "pack", "migrations_done", "switch_offs", "refused", "receiver_asleep",
    )), tally


@pytest.mark.parametrize(
    "hosts, p, q, expect",
    [
        # An overloaded initiator sheds its largest VM and is relieved.
        ({0: FULL_CPU, 1: [(0.1, 0.1)]}, 0, 1, {"grmp_relieve": 1, "grmp_migrations_done": 1}),
        # Relief stops when no VM keeps the receiver within T.
        (
            {0: FULL_MEM, 1: [(0.1, 0.98)] * 5}, 0, 1,
            {"grmp_relieve": 1, "grmp_no_candidate": 1, "grmp_migrations_done": 0},
        ),
        # 4 x 500 + 0.256 x 500 MIPS is exactly 0.8 x 2660: admitted.
        (
            {0: [(0.256, 0.1)], 1: [(1.0, 0.1)] * 4}, 0, 1,
            {"grmp_pack": 1, "grmp_migrations_done": 1, "grmp_switch_offs": 1},
        ),
        # One MIPS over T is refused, and the sender stays up.
        (
            {0: [(0.258, 0.1)], 1: [(1.0, 0.1)] * 4}, 0, 1,
            {"grmp_refused": 1, "grmp_migrations_done": 0, "grmp_switch_offs": 0},
        ),
        # Equal totals: the initiator packs into the peer.
        ({0: [(0.3, 0.3)], 1: [(0.3, 0.3)]}, 1, 0, {"grmp_pack": 1, "grmp_switch_offs": 1}),
    ],
    ids=["relieved", "no_candidate", "exactly_at_threshold", "just_over_threshold", "tie"],
)
def test_boundary_grmp_exchanges_match_the_reference(hosts, p, q, expect):
    n_pms, ratio = 3, 4
    tally = run_history(n_pms, ratio, 0, layout(n_pms * ratio, hosts) + [("grmp", p, q)]).tally
    assert {name: tally.get(name, 0) for name in expect} == expect


# CPU exactly full (5 x 500 + 0.32 x 500 = 2660 MIPS), and one VM short
# of it; memory exactly full with the CPU at 0.6 x 2660 = 1596 MIPS,
# where EcoCloud's acceptance peaks.
NEAR_CPU = [(1.0, 0.1)] * 5 + [(0.01, 0.1)]
FULL_MEM_AT_PEAK = [(1.0, 1.0)] * 3 + [(0.192, 1.0), (0.0, 1.0), (0.0, 1.0), (0.0, 418 / 613)]

#: Sixteen equal VMs, ten piled onto PM 0 after its own (so its member
#: order is not ascending and its CPU is full), then the rival policies:
#: PABFD sheds and drains, EcoCloud evicts from the full PM.
RIVALS_CANNED = [("observe", v, 0.6, 0.5) for v in range(16)]
RIVALS_CANNED += [("migrate", v, 0) for v in range(10)]
RIVALS_CANNED += [("pabfd",), ("ecocloud", 0), ("pabfd",), ("ecocloud", 0), ("ecocloud", 1)]

#: ``run_history`` arguments reaching every branch of a PABFD step and
#: of an EcoCloud round between them.
RIVAL_HISTORIES = [
    (4, 4, 2, RIVALS_CANNED + [("pabfd_round",)] * 6 + [("sleep", 3)] + [("pabfd_round",)] * 8),
    (4, 4, 2, GRMP_CANNED[:26] + [("ecocloud_round", i % 4) for i in range(16)]),
    # A shed VM that fits nowhere wakes the sleeping PM 2 ...
    (3, 4, 0, layout(12, {0: FULL_CPU, 1: NEAR_CPU}) + [("sleep", 2), ("pabfd",)]),
    # ... or, with none asleep, stays where it is.
    (3, 6, 0, layout(18, {0: FULL_CPU, 1: NEAR_CPU, 2: NEAR_CPU}) + [("pabfd",)]),
    # Overload evictions whose best acceptor has no memory left.
    (
        3, 6, 0,
        layout(18, {0: FULL_CPU, 1: FULL_MEM_AT_PEAK, 2: [(0.1, 0.1)] * 5})
        + [("ecocloud", 0)] * 3 + [("ecocloud", 2)] * 3,
    ),
]


def test_canned_rival_policy_steps_reach_every_outcome():
    """PABFD: shedding, placement, an unplaceable VM, a wake-up, full and
    aborted drains; EcoCloud: overload eviction, drain, probe broadcasts,
    accepted, declined and roomless targets and a switch-off — each
    checked against the reference step by step."""
    tally: dict = {}
    for history in RIVAL_HISTORIES:
        for name, count in run_history(*history).tally.items():
            tally[name] = tally.get(name, 0) + count
    expect = [f"pabfd_{name}" for name in (
        "shed", "placed", "unplaced", "woken", "drained", "drain_aborted",
    )] + [f"ecocloud_{name}" for name in (
        "overload", "drain", "broadcasts", "accepted", "declined", "no_room", "switch_offs",
    )]
    assert all(tally.get(name, 0) > 0 for name in expect), tally


def test_refused_migrations_raise_as_the_reference_does():
    """Every refusal of ``DataCenter.migrate`` — unknown VM or PM, an
    unplaced VM, the same PM, an asleep destination — raises the
    reference's exception type with the reference's message, and moves
    nothing."""
    pair = run_history(3, 2, 5, [("detach", 2)])
    n_vms, n_pms = pair.col.n_vms, pair.col.n_pms
    host = int(pair.col.store.host[3])
    asleep = (host + 1) % n_pms
    pair.apply(("sleep", asleep))
    refusals = {
        (-1, 0): KeyError, (n_vms, 0): KeyError, (0, -1): KeyError, (0, n_pms): KeyError,
        (2, 0): RuntimeError, (3, host): ValueError, (3, asleep): RuntimeError,
    }
    for (vm, pm), kind in refusals.items():
        outcomes = []
        for dc in (pair.obj, pair.col):
            with pytest.raises(kind) as info:
                dc.migrate(vm, pm)
            outcomes.append(str(info.value))
        assert outcomes[0] == outcomes[1], (vm, pm)
    pair.check()
    assert pair.col.migrations == []


PRICE = """    record = self.migration_model.cost_by_id(
        self.current_round, store, vm_id, src, dst_pm_id
    )
"""

#: name -> (the method, the edit): each must make some check above fail.
MUTANTS = {
    # The exchange reads whatever the planes held before the round's
    # demands landed.
    "grmp_skips_ensure_planes": (
        GrmpProtocol.execute_round,
        lambda src: replace_once(src, "store.ensure_planes()", "pass"),
    ),
    # The sender offers its VMs in membership order, not largest first.
    "grmp_insertion_order": (
        GrmpProtocol._admitted,
        lambda src: replace_once(
            src, "store.members_largest_first(sender)", "list(store.members[sender])"
        ),
    ),
    # The admission test reads the average-demand plane.
    "grmp_admits_on_averages": (
        GrmpProtocol._admitted,
        lambda src: replace_once(src, "store.pm_cur_cpu, store.pm_cur_mem",
                                 "store.pm_avg_cpu, store.pm_avg_mem"),
    ),
    # The move is priced after it is made: the endpoints' planes then
    # hold the post-move utilisations.
    "migrate_priced_after_the_move": (
        DataCenter.migrate,
        lambda src: replace_once(
            replace_once(src, PRICE, ""), "    store.add_member(dst_pm_id, vm_id)\n",
            "    store.add_member(dst_pm_id, vm_id)\n" + PRICE,
        ),
    ),
    # PABFD monitors the ``bincount`` utilisation (VM-id order), which
    # may differ from the member-order sum in the last bit.
    "pabfd_bincount_utilisation": (
        PabfdController.record_histories,
        lambda src: replace_once(
            src, "store.pm_cpu_utilization(pm_id)", "float(self.dc.cpu_utilizations()[pm_id])"
        ),
    ),
    # Minimum Migration Time without the id tie-break: equal memory goes
    # in member order.
    "pabfd_mmt_drops_id_tie_break": (
        PabfdController._shed_overloaded,
        lambda src: replace_once(src, "key=lambda v: (mem[v], v)", "key=lambda v: mem[v]"),
    ),
    # EcoCloud's largest VM without the id tie-break.
    "ecocloud_largest_drops_id_tie_break": (
        EcoCloudProtocol.execute_round,
        lambda src: replace_once(src, "key=lambda v: (cpu[v], -v)", "key=lambda v: cpu[v]"),
    ),
}

#: Each mutant's class, by name.
OWNERS = {cls.__name__: cls for cls in (DataCenter, GrmpProtocol, PabfdController, EcoCloudProtocol)}

#: ``run_history`` arguments: the canned exchanges, then exchanges each
#: straight after a round's demands land, on two cells of random traces.
MUTANT_HISTORIES = [
    (4, 4, 2, GRMP_CANNED + [("grmp_round", i, i + 1) for i in range(12)]),
    (5, 3, 0, [("grmp_round", i, i + 1) for i in range(20)]),
    RIVAL_HISTORIES[0],
    (4, 4, 2, RIVALS_CANNED),
]


def diverges(histories) -> bool:
    for history in histories:
        try:
            run_history(*history)
        except AssertionError:
            return True
    return False


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutants_are_caught(name, monkeypatch):
    method, edit = MUTANTS[name]
    owner = OWNERS[method.__qualname__.split(".")[0]]
    monkeypatch.setattr(owner, method.__name__, mutant_function(method, edit))
    assert diverges(MUTANT_HISTORIES)


def test_mutant_histories_pass_unmutated():
    assert not diverges(MUTANT_HISTORIES)
