"""Tests-only oracle: the per-object data-centre layout.

Until PR 18 ``DataCenter(backend="object")`` / ``GLAP_DC_BACKEND=object``
selected this layout in production: one Python object per PM, VM and
monitor, a dict of VMs per PM, and per-object loops where the columnar
store has whole-array ops.  It passed every golden digest at the commit
that removed the switch.  What is kept here is what the differential
suites (``test_columnar_equivalence.py``, ``test_planes_differential.py``)
drive and compare against:

* the PM / VM / monitor classes as ``repro.datacenter.{pm,vm,monitor}``
  had them (classes renamed; methods no suite calls and constructor
  argument checks dropped, every kept body verbatim);
* :class:`ReferenceDataCenter`: the object halves of ``DataCenter``'s
  operations — placement, ``advance_round``, ``migrate``, detach/respawn
  through the PMs, sleep/wake, ``reset_accounting``, the aggregate views
  — plus :meth:`~ReferenceDataCenter.snapshot` / ``restore``, the object
  halves of the checkpoint capture/restore; :func:`reference_cost_of`
  prices a move on the objects, as ``MigrationModel.cost_of`` did;
* the object-side *reader specifications* the production code's store
  readers must answer like: :func:`reference_pm_state`,
  :func:`reference_vm_action`, :func:`reference_find_vm` (Alg. 3's
  ``findVM``), :func:`reference_admits` / :func:`reference_largest_first`
  (GRMP) and :func:`reference_check_invariants` (the per-object walk);
* :func:`reference_exchange`: one whole Alg. 3 exchange (UPDATESTATE and
  the MIGRATE loop) as ``GlapConsolidationProtocol`` ran it on the PM
  and VM views before it moved onto the store's planes, and
  :func:`reference_grmp_exchange`: one whole GRMP exchange (packing or
  relief) as ``GrmpProtocol`` ran it on the views, built on
  :func:`reference_admits` and :func:`reference_largest_first`.
  Both migrate through :meth:`ReferenceDataCenter.migrate`;
* :class:`ReferencePabfd` / :func:`reference_pabfd_step`: one PABFD
  control step (monitoring, MMT shedding, power-aware BFD placement with
  wake-ups, underload draining) and :func:`reference_ecocloud_contact`:
  one EcoCloud round of one PM (overload eviction or drain, each VM
  through a probe and Bernoulli acceptance), as ``PabfdController`` and
  ``EcoCloudProtocol`` ran them on the PM and VM views before they moved
  onto the store's planes.

Shares nothing with the store: from ``repro`` it imports only the
hardware specs, the migration cost model's shared arithmetic
(``_duration`` / ``_power_delta``) and record, the power model, the
MAD threshold, EcoCloud's probability functions (its config) and the
level helpers of ``repro.core.states``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.ecocloud import EcoCloudConfig
from repro.baselines.pabfd import PabfdConfig
from repro.baselines.thresholds import mad_upper_threshold
from repro.core.states import state_of_utilization
from repro.datacenter.migration import MigrationModel, MigrationRecord
from repro.datacenter.power import LinearPowerModel
from repro.datacenter.resources import (
    CPU,
    EC2_MICRO,
    HP_PROLIANT_ML110_G5,
    MachineSpec,
    N_RESOURCES,
)

__all__ = [
    "ReferenceVmMonitor",
    "ReferenceVirtualMachine",
    "ReferencePhysicalMachine",
    "ReferenceDataCenter",
    "ReferencePabfd",
    "reference_cost_of",
    "reference_pm_state",
    "reference_vm_action",
    "reference_find_vm",
    "reference_admits",
    "reference_largest_first",
    "reference_check_invariants",
    "reference_exchange",
    "reference_grmp_exchange",
    "reference_pabfd_step",
    "reference_ecocloud_contact",
]


class ReferenceVmMonitor:
    """Tracks current demand and the ``{c, v}`` running average per resource.

    ``current`` and ``average`` may be *views* into a data-centre-owned
    demand matrix (see :meth:`bind`); all updates are in place.
    """

    __slots__ = ("current", "average", "count")

    def __init__(self) -> None:
        self.current = np.zeros(N_RESOURCES, dtype=np.float64)
        self.average = np.zeros(N_RESOURCES, dtype=np.float64)
        self.count = 0

    def bind(self, current_row: np.ndarray, average_row: np.ndarray) -> None:
        """Adopt external array rows as this monitor's storage."""
        current_row[:] = self.current
        average_row[:] = self.average
        self.current = current_row
        self.average = average_row

    def observe(self, demand: np.ndarray) -> None:
        d = np.asarray(demand, dtype=np.float64)
        if d.shape != (N_RESOURCES,):
            raise ValueError(f"demand must have shape ({N_RESOURCES},), got {d.shape}")
        if np.any(d < 0.0) or np.any(d > 1.0):
            raise ValueError(f"demand fractions must be in [0, 1], got {d}")
        # v' = (c*v + d) / (c + 1)   — the paper's piggyback update.
        self.average[:] = (self.count * self.average + d) / (self.count + 1)
        self.count += 1
        self.current[:] = d


class ReferenceVirtualMachine:
    __slots__ = (
        "vm_id",
        "spec",
        "monitor",
        "host_id",
        "cpu_requested_mips_s",
        "cpu_degraded_mips_s",
        "migrations",
    )

    def __init__(self, vm_id: int, spec: MachineSpec = EC2_MICRO) -> None:
        self.vm_id = int(vm_id)
        self.spec = spec
        self.monitor = ReferenceVmMonitor()
        self.host_id: Optional[int] = None
        self.cpu_requested_mips_s = 0.0
        self.cpu_degraded_mips_s = 0.0
        self.migrations = 0

    def current_demand_abs(self) -> np.ndarray:
        return self.monitor.current * self.spec.capacity_vector()

    def average_demand_abs(self) -> np.ndarray:
        return self.monitor.average * self.spec.capacity_vector()

    def cpu_demand_mips(self) -> float:
        return float(self.monitor.current[CPU] * self.spec.cpu_mips)

    def observe_demand(self, demand_fractions: np.ndarray, round_seconds: float) -> None:
        self.monitor.observe(demand_fractions)
        self.cpu_requested_mips_s += self.cpu_demand_mips() * round_seconds

    def record_migration_degradation(self, degraded_mips_s: float) -> None:
        if degraded_mips_s < 0:
            raise ValueError(f"degraded_mips_s must be >= 0, got {degraded_mips_s}")
        self.cpu_degraded_mips_s += degraded_mips_s
        self.migrations += 1


class ReferencePhysicalMachine:
    """A host with bounded CPU/memory capacity and a VM set."""

    __slots__ = (
        "pm_id",
        "spec",
        "_vms",
        "active_seconds",
        "saturated_seconds",
        "asleep",
    )

    def __init__(self, pm_id: int, spec: MachineSpec = HP_PROLIANT_ML110_G5) -> None:
        self.pm_id = int(pm_id)
        self.spec = spec
        self._vms: Dict[int, ReferenceVirtualMachine] = {}
        self.active_seconds = 0.0
        self.saturated_seconds = 0.0
        self.asleep = False

    # -- VM set --------------------------------------------------------------

    @property
    def vms(self) -> List[ReferenceVirtualMachine]:
        return list(self._vms.values())

    @property
    def is_empty(self) -> bool:
        return not self._vms

    def add_vm(self, vm: ReferenceVirtualMachine) -> None:
        if vm.vm_id in self._vms:
            raise ValueError(f"VM {vm.vm_id} already on PM {self.pm_id}")
        if vm.host_id is not None:
            raise ValueError(
                f"VM {vm.vm_id} still assigned to PM {vm.host_id}; remove it first"
            )
        self._vms[vm.vm_id] = vm
        vm.host_id = self.pm_id

    def remove_vm(self, vm_id: int) -> ReferenceVirtualMachine:
        try:
            vm = self._vms.pop(vm_id)
        except KeyError:
            raise KeyError(f"VM {vm_id} not on PM {self.pm_id}") from None
        vm.host_id = None
        return vm

    # -- utilisation views ------------------------------------------------------

    def demand_vector(self, *, use_average: bool = False) -> np.ndarray:
        """Total VM demand in absolute units ([MIPS, MB]), uncapped."""
        total = np.zeros(N_RESOURCES, dtype=np.float64)
        for vm in self._vms.values():
            total += vm.average_demand_abs() if use_average else vm.current_demand_abs()
        return total

    def utilization(self, *, use_average: bool = False, cap: bool = True) -> np.ndarray:
        u = self.demand_vector(use_average=use_average) / self.spec.capacity_vector()
        if cap:
            np.minimum(u, 1.0, out=u)
        return u

    def current_utilization(self) -> np.ndarray:
        return self.utilization(use_average=False)

    def cpu_utilization(self) -> float:
        demand = sum(vm.cpu_demand_mips() for vm in self._vms.values())
        return min(1.0, demand / self.spec.cpu_mips)

    def total_utilization(self) -> float:
        return float(self.current_utilization().sum())

    def peak_utilization(self) -> float:
        return float(self.current_utilization().max())

    # -- predicates ---------------------------------------------------------------

    def is_overloaded(self, *, use_average: bool = False) -> bool:
        u = self.utilization(use_average=use_average, cap=False)
        return bool(np.any(u >= 1.0))

    def fits(self, vm: ReferenceVirtualMachine, *, headroom: float = 0.0) -> bool:
        if not 0.0 <= headroom < 1.0:
            raise ValueError(f"headroom must be in [0, 1), got {headroom}")
        after = self.demand_vector() + vm.current_demand_abs()
        limit = self.spec.capacity_vector() * (1.0 - headroom)
        return bool(np.all(after <= limit))

    # -- SLAVO accounting ------------------------------------------------------------

    def account_round(self, round_seconds: float, cpu_demand_mips: float) -> None:
        self.active_seconds += round_seconds
        if cpu_demand_mips >= self.spec.cpu_mips:
            self.saturated_seconds += round_seconds


class ReferenceDataCenter:
    """PMs + VMs + trace + migration accounting, one object per machine."""

    def __init__(
        self,
        n_pms: int,
        n_vms: int,
        trace,
        round_seconds: float = 120.0,
        pm_spec: MachineSpec = HP_PROLIANT_ML110_G5,
        vm_spec: MachineSpec = EC2_MICRO,
    ) -> None:
        self.round_seconds = round_seconds
        self.pms = [ReferencePhysicalMachine(i, pm_spec) for i in range(n_pms)]
        self.vms = [ReferenceVirtualMachine(i, vm_spec) for i in range(n_vms)]
        # Every VM monitor's current/average row is a view into these
        # matrices, so one assignment per round refreshes all monitors.
        self._cur = np.zeros((n_vms, N_RESOURCES), dtype=np.float64)
        self._avg = np.zeros((n_vms, N_RESOURCES), dtype=np.float64)
        for i, vm in enumerate(self.vms):
            vm.monitor.bind(self._cur[i], self._avg[i])
        self._vm_cap = np.vstack([vm.spec.capacity_vector() for vm in self.vms])
        self._pm_cap = np.vstack([pm.spec.capacity_vector() for pm in self.pms])
        self._vm_cpu_mips = self._vm_cap[:, CPU].copy()
        self._pm_cpu_mips = self._pm_cap[:, CPU].copy()
        self.trace = trace
        self.migration_model = MigrationModel()
        self.migrations: List[MigrationRecord] = []
        self.current_round = -1

    # -- lookups ----------------------------------------------------------

    def pm(self, pm_id: int) -> ReferencePhysicalMachine:
        if not 0 <= pm_id < len(self.pms):
            raise KeyError(f"no PM {pm_id}")
        return self.pms[pm_id]

    def vm(self, vm_id: int) -> ReferenceVirtualMachine:
        if not 0 <= vm_id < len(self.vms):
            raise KeyError(f"no VM {vm_id}")
        return self.vms[vm_id]

    @property
    def n_pms(self) -> int:
        return len(self.pms)

    @property
    def n_vms(self) -> int:
        return len(self.vms)

    # -- placement -----------------------------------------------------------

    def place_randomly(self, rng: np.random.Generator) -> None:
        if np.any(self.placement() >= 0):
            raise RuntimeError("place_randomly called on a non-empty data centre")
        self.apply_placement(rng.integers(0, self.n_pms, size=self.n_vms))

    def apply_placement(self, hosts: Sequence[int]) -> None:
        if len(hosts) != self.n_vms:
            raise ValueError(f"expected {self.n_vms} host ids, got {len(hosts)}")
        for vm, host in zip(self.vms, hosts):
            if vm.host_id is not None:
                self.pm(vm.host_id).remove_vm(vm.vm_id)
            self.pm(int(host)).add_vm(vm)

    def placement(self) -> np.ndarray:
        return np.array(
            [vm.host_id if vm.host_id is not None else -1 for vm in self.vms],
            dtype=np.int64,
        )

    # -- per-round demand refresh ------------------------------------------------

    def advance_round(self) -> int:
        self.current_round += 1
        demands = np.asarray(
            self.trace.demands_at(self.current_round), dtype=np.float64
        )[: self.n_vms]
        # The paper's {c, v} piggyback update, for every monitor at once:
        # v' = (c*v + d) / (c + 1).  Counts are gathered (not assumed
        # uniform) so directly-observed monitors stay correct.
        counts = np.fromiter(
            (vm.monitor.count for vm in self.vms), dtype=np.float64, count=self.n_vms
        )[:, None]
        self._avg[:] = (counts * self._avg + demands) / (counts + 1.0)
        self._cur[:] = demands
        # Requested CPU accrual (the SLALM C_r term): (d * mips) * round_seconds.
        cpu_req = (demands[:, CPU] * self._vm_cpu_mips) * self.round_seconds
        for vm, inc in zip(self.vms, cpu_req):
            vm.monitor.count += 1
            vm.cpu_requested_mips_s += float(inc)
        pm_cpu = self.pm_cpu_demand_mips()
        for pm in self.pms:
            if not pm.asleep:
                pm.account_round(self.round_seconds, float(pm_cpu[pm.pm_id]))
        return self.current_round

    # -- migration ---------------------------------------------------------------

    def migrate(self, vm_id: int, dst_pm_id: int) -> MigrationRecord:
        vm = self.vm(vm_id)
        if vm.host_id is None:
            raise RuntimeError(f"VM {vm_id} is not placed")
        src = self.pm(vm.host_id)
        dst = self.pm(dst_pm_id)
        if dst.pm_id == src.pm_id:
            raise ValueError(f"VM {vm_id}: destination equals source PM {src.pm_id}")
        if dst.asleep:
            raise RuntimeError(f"destination PM {dst.pm_id} is asleep")
        record = reference_cost_of(self.migration_model, self.current_round, vm, src, dst)
        src.remove_vm(vm.vm_id)
        dst.add_vm(vm)
        vm.record_migration_degradation(record.degraded_mips_s)
        self.migrations.append(record)
        return record

    def reset_accounting(self) -> None:
        self.migrations.clear()
        for pm in self.pms:
            pm.active_seconds = 0.0
            pm.saturated_seconds = 0.0
        for vm in self.vms:
            vm.cpu_requested_mips_s = 0.0
            vm.cpu_degraded_mips_s = 0.0
            vm.migrations = 0

    # -- checkpoint-style capture / restore ------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Placement (per-PM insertion order), PM/VM state and the
        migration log — the scope of a checkpoint's ``state`` section."""
        return {
            "placement": [[vm.vm_id for vm in pm.vms] for pm in self.pms],
            "pms": [(pm.asleep, pm.active_seconds, pm.saturated_seconds) for pm in self.pms],
            "vms": [
                (vm.cpu_requested_mips_s, vm.cpu_degraded_mips_s, vm.migrations, vm.monitor.count)
                for vm in self.vms
            ],
            "cur": self._cur.copy(),
            "avg": self._avg.copy(),
            "migrations": list(self.migrations),
        }

    def restore(self, state: Dict[str, Any]) -> None:
        for vm in self.vms:
            if vm.host_id is not None:
                self.pm(vm.host_id).remove_vm(vm.vm_id)
        for pm, vm_ids in zip(self.pms, state["placement"]):
            for vm_id in vm_ids:
                pm.add_vm(self.vm(vm_id))
        for pm, (asleep, active_s, saturated_s) in zip(self.pms, state["pms"]):
            pm.asleep, pm.active_seconds, pm.saturated_seconds = asleep, active_s, saturated_s
        for vm, (requested, degraded, migrations, count) in zip(self.vms, state["vms"]):
            vm.cpu_requested_mips_s, vm.cpu_degraded_mips_s = requested, degraded
            vm.migrations, vm.monitor.count = migrations, count
        # In place: the monitors stay bound to the matrices' rows.
        self._cur[:] = state["cur"]
        self._avg[:] = state["avg"]
        self.migrations[:] = state["migrations"]

    # -- aggregate views -----------------------------------------------------------

    def active_pms(self) -> List[ReferencePhysicalMachine]:
        return [pm for pm in self.pms if not pm.asleep]

    def active_count(self) -> int:
        return sum(1 for pm in self.pms if not pm.asleep)

    def awake_mask(self) -> np.ndarray:
        return np.fromiter(
            (not pm.asleep for pm in self.pms), dtype=bool, count=self.n_pms
        )

    def vm_demand_matrix(self, *, use_average: bool = False) -> np.ndarray:
        return (self._avg if use_average else self._cur) * self._vm_cap

    def pm_demand_matrix(self, *, use_average: bool = False) -> np.ndarray:
        abs_demand = self.vm_demand_matrix(use_average=use_average)
        hosts = self.placement()
        placed = hosts >= 0
        h = hosts[placed]
        out = np.empty((self.n_pms, N_RESOURCES), dtype=np.float64)
        for r in range(N_RESOURCES):
            out[:, r] = np.bincount(
                h, weights=abs_demand[placed, r], minlength=self.n_pms
            )
        return out

    def pm_cpu_demand_mips(self) -> np.ndarray:
        hosts = self.placement()
        placed = hosts >= 0
        return np.bincount(
            hosts[placed],
            weights=self._cur[placed, CPU] * self._vm_cpu_mips[placed],
            minlength=self.n_pms,
        )

    def cpu_utilizations(self) -> np.ndarray:
        u = self.pm_cpu_demand_mips() / self._pm_cpu_mips
        np.minimum(u, 1.0, out=u)
        return u

    def overloaded_count(self) -> int:
        overloaded = np.any(self.pm_demand_matrix() / self._pm_cap >= 1.0, axis=1)
        return int(np.count_nonzero(overloaded & self.awake_mask()))

    def utilization_matrix(self, *, use_average: bool = False) -> np.ndarray:
        u = self.pm_demand_matrix(use_average=use_average) / self._pm_cap
        np.minimum(u, 1.0, out=u)
        u[~self.awake_mask()] = 0.0
        return u


# -- migration pricing on the objects -------------------------------------------


def reference_cost_of(
    model: MigrationModel,
    round_index: int,
    vm: ReferenceVirtualMachine,
    src: ReferencePhysicalMachine,
    dst: ReferencePhysicalMachine,
) -> MigrationRecord:
    """``MigrationModel.cost_of``: duration from the VM's used memory and
    the slower end's link, eq. 3's energy at both endpoints' CPU
    utilisations, and the C_d term, on the model's shared arithmetic."""
    tau = model._duration(
        vm.monitor.current[1] * vm.spec.mem_mb,
        vm.spec.mem_mb,
        min(src.spec.bandwidth_mbps, dst.spec.bandwidth_mbps),
    )
    return MigrationRecord(
        round_index=round_index,
        vm_id=vm.vm_id,
        src_pm=src.pm_id,
        dst_pm=dst.pm_id,
        duration_s=tau,
        energy_j=(
            model._power_delta(src.cpu_utilization()) + model._power_delta(dst.cpu_utilization())
        ) * tau,
        degraded_mips_s=model.degradation_fraction * vm.cpu_demand_mips() * tau,
    )


def migration_event(dc: ReferenceDataCenter, record: MigrationRecord) -> Dict[str, Any]:
    """The ``migration`` event ``DataCenter.migrate`` traces for ``record``,
    as ``RecordingTracer`` holds it."""
    return {
        "ev": "migration", "round": dc.current_round, "node": record.src_pm,
        "vm": record.vm_id, "dst": record.dst_pm,
        "energy_j": record.energy_j, "duration_s": record.duration_s,
    }


# -- reader specifications -------------------------------------------------------


def reference_pm_state(pm: ReferencePhysicalMachine, *, use_average: bool = True) -> int:
    """``repro.core.states.pm_state``: the level code of the uncapped
    utilisation vector."""
    return state_of_utilization(pm.utilization(use_average=use_average, cap=False))


def reference_vm_action(vm: ReferenceVirtualMachine, *, use_average: bool = True) -> int:
    """``repro.core.states.vm_action``, from demand relative to the VM's spec."""
    return state_of_utilization(vm.monitor.average if use_average else vm.monitor.current)


def reference_find_vm(
    model, sender: ReferencePhysicalMachine
) -> Optional[Tuple[int, ReferenceVirtualMachine]]:
    """``findVM(s_p)`` of Alg. 3: best action by Q_out, then cheapest VM of it."""
    vms = sender.vms
    if not vms:
        return None
    s_p = reference_pm_state(sender, use_average=True)
    by_action: Dict[int, List[ReferenceVirtualMachine]] = {}
    for vm in vms:
        by_action.setdefault(reference_vm_action(vm, use_average=True), []).append(vm)
    action = model.pi_out(s_p, list(by_action.keys()))
    if action is None:
        return None
    # Least migration cost ~ least memory footprint (migration time
    # is driven by memory size), ties to lowest id for determinism.
    vm = min(
        by_action[action],
        key=lambda v: (v.current_demand_abs()[1], v.vm_id),
    )
    return action, vm


def reference_admits(
    receiver: ReferencePhysicalMachine, vm: ReferenceVirtualMachine, upper_threshold: float
) -> bool:
    """GRMP's static rule: receiver's projected current utilisation <= T."""
    after = receiver.demand_vector() + vm.current_demand_abs()
    limit = receiver.spec.capacity_vector() * upper_threshold
    return bool(np.all(after <= limit))


def reference_largest_first(pm: ReferencePhysicalMachine) -> List[ReferenceVirtualMachine]:
    """GRMP's eviction order: largest current CPU demand first, ties to
    the lowest id."""
    return sorted(pm.vms, key=lambda v: (-v.current_demand_abs()[0], v.vm_id))


def reference_check_invariants(dc: ReferenceDataCenter, atol: float = 1e-9) -> None:
    """Per-object walk of the structural/numeric conservation laws;
    raises ``AssertionError`` on the first breach."""
    hosted = sorted(vm.vm_id for pm in dc.pms for vm in pm.vms)
    if hosted != list(range(dc.n_vms)):
        missing = sorted(set(range(dc.n_vms)) - set(hosted))
        raise AssertionError(f"VM conservation broken: missing={missing}")
    for pm in dc.pms:
        if pm.asleep and not pm.is_empty:
            raise AssertionError(f"sleeping PM {pm.pm_id} still hosts VMs")
        expected = np.zeros(N_RESOURCES, dtype=np.float64)
        for vm in pm.vms:
            if vm.host_id != pm.pm_id:
                raise AssertionError(
                    f"VM {vm.vm_id} on PM {pm.pm_id} claims host {vm.host_id}"
                )
            expected += vm.current_demand_abs()
        actual = pm.demand_vector()
        if not np.allclose(actual, expected, atol=atol):
            raise AssertionError(
                f"PM {pm.pm_id} utilisation view {actual} != VM sum {expected}"
            )


def reference_exchange(
    models, dc: ReferenceDataCenter, p: int, q: int, round_index: int,
    max_migrations: int = 64,
) -> Tuple[List[Dict[str, Any]], Dict[str, int]]:
    """Alg. 3's exchange between initiator PM ``p`` and peer ``q`` (the
    state message delivered), with the sender's ``models[pm_id]``.

    Returns the ``eviction`` / ``pm_sleep`` events it would trace, as
    ``RecordingTracer`` holds them, and a tally: the protocol's four
    per-exchange counters plus the loop's two other stops, ``relieved``
    (an overloaded sender no longer is) and ``receiver_asleep``.
    """
    events: List[Dict[str, Any]] = []
    tally = dict.fromkeys(
        ("rejections_by_q_in", "rejections_by_capacity", "migrations_done", "switch_offs",
         "relieved", "receiver_asleep"),
        0,
    )

    def emit(kind: str, node: int, **fields: Any) -> None:
        events.append({"ev": kind, "round": round_index, "node": node, **fields})

    def migrate_one(sender: ReferencePhysicalMachine, receiver: ReferencePhysicalMachine) -> bool:
        model = models[sender.pm_id]
        chosen = reference_find_vm(model, sender)
        if chosen is None:
            return False
        action, vm = chosen
        outcome = "migrated"
        if not model.pi_in(reference_pm_state(receiver, use_average=True), action):
            outcome, counter = "q_in_reject", "rejections_by_q_in"
        elif not receiver.fits(vm):
            outcome, counter = "capacity_reject", "rejections_by_capacity"
        emit("eviction", sender.pm_id, peer=receiver.pm_id, vm=vm.vm_id, outcome=outcome)
        if outcome != "migrated":
            tally[counter] += 1
            return False
        dc.migrate(vm.vm_id, receiver.pm_id)
        tally["migrations_done"] += 1
        return True

    def migrate_while(
        sender: ReferencePhysicalMachine, receiver: ReferencePhysicalMachine, relieve: bool
    ) -> None:
        if receiver.asleep:
            tally["receiver_asleep"] += 1
            return
        done = 0
        while done < max_migrations:
            if relieve and not sender.is_overloaded():
                tally["relieved"] += 1
                break
            if sender.is_empty:
                break
            if not migrate_one(sender, receiver):
                break
            done += 1
        if sender.is_empty and not sender.asleep:
            sender.asleep = True
            tally["switch_offs"] += 1
            emit("pm_sleep", sender.pm_id)

    initiator, peer = dc.pm(p), dc.pm(q)
    if initiator.is_overloaded():
        migrate_while(initiator, peer, relieve=True)
    elif initiator.total_utilization() <= peer.total_utilization():
        migrate_while(initiator, peer, relieve=False)
    else:
        migrate_while(peer, initiator, relieve=False)
    return events, tally


def reference_grmp_exchange(
    dc: ReferenceDataCenter, p: int, q: int, round_index: int,
    upper_threshold: float = 0.8, max_migrations: int = 64,
) -> Tuple[Tuple[str, int, int], List[Dict[str, Any]], Dict[str, int]]:
    """GRMP's exchange between initiator PM ``p`` and peer ``q`` (the
    state message delivered).

    Returns the branch taken as ``(kind, sender, receiver)`` — kind
    ``"relieve"`` for an overloaded initiator, ``"pack"`` otherwise —
    the ``migration`` / ``pm_sleep`` events it would trace, as
    ``RecordingTracer`` holds them (a migration's round is the data
    centre's, a switch-off's ``round_index``), and a tally:
    ``migrations_done``, ``switch_offs``, ``refused`` (a VM the static
    rule turned away while the loop went on), ``no_candidate`` (relief
    stopped with no admissible VM) and ``receiver_asleep``.
    """
    events: List[Dict[str, Any]] = []
    tally = dict.fromkeys(
        ("migrations_done", "switch_offs", "refused", "no_candidate", "receiver_asleep"), 0
    )

    def migrate(vm: ReferenceVirtualMachine, receiver: ReferencePhysicalMachine) -> None:
        events.append(migration_event(dc, dc.migrate(vm.vm_id, receiver.pm_id)))
        tally["migrations_done"] += 1

    initiator, peer = dc.pm(p), dc.pm(q)
    if initiator.is_overloaded():
        if peer.asleep:
            tally["receiver_asleep"] += 1
            return ("relieve", p, q), events, tally
        moved = 0
        while initiator.is_overloaded() and not initiator.is_empty and moved < max_migrations:
            candidates = [
                vm for vm in reference_largest_first(initiator)
                if reference_admits(peer, vm, upper_threshold)
            ]
            if not candidates:
                tally["no_candidate"] += 1
                break
            migrate(candidates[0], peer)
            moved += 1
        return ("relieve", p, q), events, tally

    if initiator.total_utilization() <= peer.total_utilization():
        sender, receiver = initiator, peer
    else:
        sender, receiver = peer, initiator
    branch = ("pack", sender.pm_id, receiver.pm_id)
    if receiver.asleep or sender.asleep:
        tally["receiver_asleep"] += receiver.asleep
        return branch, events, tally
    moved = 0
    for vm in reference_largest_first(sender):
        if moved >= max_migrations:
            break
        if not reference_admits(receiver, vm, upper_threshold):
            tally["refused"] += 1
            continue
        migrate(vm, receiver)
        moved += 1
    if sender.is_empty and not sender.asleep:
        sender.asleep = True
        tally["switch_offs"] += 1
        events.append({"ev": "pm_sleep", "round": round_index, "node": sender.pm_id})
    return branch, events, tally


# -- the rival policies on the objects ---------------------------------------------


class ReferencePabfd:
    """``PabfdController`` on the objects: its bodies as they read the
    views, with ``sim`` replaced by :attr:`events` (the ``pm_sleep`` /
    ``pm_wake`` / ``migration`` events the production step traces) and
    :attr:`tally` (what the step's branches did, for coverage)."""

    def __init__(
        self,
        dc: ReferenceDataCenter,
        config: PabfdConfig,
        power_model: Optional[LinearPowerModel] = None,
    ) -> None:
        self.dc = dc
        self.config = config
        self.power_model = power_model if power_model is not None else LinearPowerModel()
        self._history: Dict[int, Deque[float]] = {
            pm.pm_id: deque(maxlen=config.history_window) for pm in dc.pms
        }
        self.enabled = False
        self.wake_ups = 0
        self.switch_offs = 0
        self._enabled_steps = 0
        self.round_index = 0
        self.events: List[Dict[str, Any]] = []
        self.tally: Dict[str, int] = {}

    def _count(self, name: str) -> None:
        self.tally[name] = self.tally.get(name, 0) + 1

    def _migrate(self, vm_id: int, dst: int) -> None:
        self.events.append(migration_event(self.dc, self.dc.migrate(vm_id, dst)))

    def record_histories(self) -> None:
        for pm in self.dc.pms:
            if not pm.asleep:
                self._history[pm.pm_id].append(pm.cpu_utilization())

    def step(self) -> None:
        self.record_histories()
        if not self.enabled:
            return
        self._enabled_steps += 1
        if self._enabled_steps % self.config.control_period_rounds != 0:
            return
        to_place = self._shed_overloaded()
        self._place(to_place)
        self._drain_underloaded()

    def threshold_of(self, pm_id: int) -> float:
        return mad_upper_threshold(
            list(self._history[pm_id]),
            safety=self.config.safety,
            floor=self.config.threshold_floor,
        )

    def _shed_overloaded(self) -> List[ReferenceVirtualMachine]:
        shed: List[ReferenceVirtualMachine] = []
        for pm in self.dc.active_pms():
            threshold = self.threshold_of(pm.pm_id)
            if pm.cpu_utilization() < threshold:
                continue
            candidates = sorted(
                pm.vms, key=lambda v: (v.current_demand_abs()[1], v.vm_id)
            )
            projected = pm.cpu_utilization()
            evicted = 0
            for vm in candidates:
                if projected < threshold or evicted >= self.config.max_evictions_per_host:
                    break
                projected -= vm.cpu_demand_mips() / pm.spec.cpu_mips
                shed.append(vm)
                evicted += 1
                self._count("shed")
        return shed

    def _power_increase(self, pm: ReferencePhysicalMachine, vm: ReferenceVirtualMachine) -> float:
        u_now = pm.cpu_utilization()
        u_after = min(1.0, u_now + vm.cpu_demand_mips() / pm.spec.cpu_mips)
        return self.power_model.power(u_after) - self.power_model.power(u_now)

    def _fits_below_threshold(
        self, pm: ReferencePhysicalMachine, vm: ReferenceVirtualMachine
    ) -> bool:
        if not pm.fits(vm):
            return False
        u_after = (
            sum(v.cpu_demand_mips() for v in pm.vms) + vm.cpu_demand_mips()
        ) / pm.spec.cpu_mips
        return u_after < self.threshold_of(pm.pm_id)

    def _choose_host(
        self, vm: ReferenceVirtualMachine, exclude: int
    ) -> Optional[ReferencePhysicalMachine]:
        best: Optional[Tuple[float, int]] = None
        for pm in self.dc.active_pms():
            if pm.pm_id == exclude:
                continue
            if self._fits_below_threshold(pm, vm):
                key = (self._power_increase(pm, vm), pm.pm_id)
                if best is None or key < best:
                    best = key
        return self.dc.pm(best[1]) if best is not None else None

    def _place(self, vms: List[ReferenceVirtualMachine]) -> None:
        for vm in sorted(vms, key=lambda v: (-v.cpu_demand_mips(), v.vm_id)):
            src = vm.host_id
            assert src is not None
            host = self._choose_host(vm, exclude=src)
            if host is None and self.config.allow_wake_ups:
                host = self._wake_one()
            if host is not None and host.pm_id != src:
                self._migrate(vm.vm_id, host.pm_id)
                self._count("placed")
            else:
                self._count("unplaced")

    def _wake_one(self) -> Optional[ReferencePhysicalMachine]:
        for pm in self.dc.pms:
            if pm.asleep:
                pm.asleep = False
                self.events.append(
                    {"ev": "pm_wake", "round": self.round_index, "node": pm.pm_id, "recover": False}
                )
                self._history[pm.pm_id].clear()
                self.wake_ups += 1
                self._count("woken")
                return pm
        return None

    def _drain_underloaded(self) -> None:
        drained: set = set()
        while True:
            active = [
                pm for pm in self.dc.active_pms()
                if not pm.is_empty and pm.pm_id not in drained
            ]
            if len(active) <= 1:
                return
            source = min(active, key=lambda pm: (pm.cpu_utilization(), pm.pm_id))
            if not self._drain_one(source):
                self._count("drain_aborted")
                return
            drained.add(source.pm_id)

    def _drain_one(self, source: ReferencePhysicalMachine) -> bool:
        plan: List[Tuple[int, int]] = []
        placed_load: Dict[int, float] = {}
        for vm in sorted(source.vms, key=lambda v: (-v.cpu_demand_mips(), v.vm_id)):
            host = self._choose_host_with_extra(vm, source.pm_id, placed_load)
            if host is None:
                return False
            plan.append((vm.vm_id, host.pm_id))
            placed_load[host.pm_id] = placed_load.get(host.pm_id, 0.0) + vm.cpu_demand_mips()
        for vm_id, host_id in plan:
            self._migrate(vm_id, host_id)
        if source.is_empty:
            source.asleep = True
            self.events.append({"ev": "pm_sleep", "round": self.round_index, "node": source.pm_id})
            self.switch_offs += 1
            self._count("drained")
            return True
        return False

    def _choose_host_with_extra(
        self, vm: ReferenceVirtualMachine, exclude: int, placed_load: Dict[int, float]
    ) -> Optional[ReferencePhysicalMachine]:
        best: Optional[Tuple[float, int]] = None
        for pm in self.dc.active_pms():
            if pm.pm_id == exclude:
                continue
            extra = placed_load.get(pm.pm_id, 0.0)
            u_after = (
                sum(v.cpu_demand_mips() for v in pm.vms) + extra + vm.cpu_demand_mips()
            ) / pm.spec.cpu_mips
            mem_after = (
                pm.demand_vector()[1] + vm.current_demand_abs()[1]
            ) / pm.spec.mem_mb
            if u_after < self.threshold_of(pm.pm_id) and mem_after <= 1.0:
                key = (self._power_increase(pm, vm), pm.pm_id)
                if best is None or key < best:
                    best = key
        return self.dc.pm(best[1]) if best is not None else None


def reference_pabfd_step(ctl: ReferencePabfd, round_index: int) -> List[Dict[str, Any]]:
    """One ``PabfdController.step`` in round ``round_index``: the events it
    would trace, as ``RecordingTracer`` holds them (a migration's round
    is the data centre's)."""
    ctl.round_index = round_index
    ctl.events = []
    ctl.step()
    return ctl.events


def reference_ecocloud_contact(
    dc: ReferenceDataCenter,
    config: EcoCloudConfig,
    rng: np.random.Generator,
    pm_id: int,
    round_index: int,
) -> Tuple[List[Dict[str, Any]], Dict[str, int]]:
    """One enabled ``EcoCloudProtocol.execute_round`` of PM ``pm_id``,
    drawing from ``rng``.

    Returns the ``migration`` / ``pm_sleep`` events it would trace and a
    tally: ``overload`` / ``drain`` (the branch that fired),
    ``broadcasts`` (probe requests sent), ``accepted`` (migrations),
    ``declined`` (a Bernoulli refusal), ``no_room`` (an acceptor without
    capacity) and ``switch_offs``.
    """
    events: List[Dict[str, Any]] = []
    tally = dict.fromkeys(
        ("overload", "drain", "broadcasts", "accepted", "declined", "no_room", "switch_offs"), 0
    )

    def probe_targets(src: ReferencePhysicalMachine) -> List[ReferencePhysicalMachine]:
        active = [pm for pm in dc.active_pms() if pm.pm_id != src.pm_id]
        if not active:
            return []
        tally["broadcasts"] += 1
        k = min(config.probe_count, len(active))
        idx = rng.choice(len(active), size=k, replace=False)
        return [active[i] for i in idx]

    def request_migration(vm: ReferenceVirtualMachine, src: ReferencePhysicalMachine) -> bool:
        for pm in probe_targets(src):
            if rng.random() < config.accept_probability(pm.cpu_utilization()):
                if pm.fits(vm):
                    events.append(migration_event(dc, dc.migrate(vm.vm_id, pm.pm_id)))
                    tally["accepted"] += 1
                    return True
                tally["no_room"] += 1
            else:
                tally["declined"] += 1
        return False

    pm = dc.pm(pm_id)
    if pm.asleep or pm.is_empty:
        return events, tally
    u = pm.cpu_utilization()
    if u > config.upper_threshold:
        if rng.random() < config.overload_migrate_probability(u):
            tally["overload"] += 1
            vm = max(pm.vms, key=lambda v: (v.current_demand_abs()[0], -v.vm_id))
            request_migration(vm, pm)
    else:
        if rng.random() < config.underload_migrate_probability(u):
            tally["drain"] += 1
            for vm in sorted(pm.vms, key=lambda v: (v.current_demand_abs()[0], v.vm_id)):
                request_migration(vm, pm)
            if pm.is_empty:
                pm.asleep = True
                events.append({"ev": "pm_sleep", "round": round_index, "node": pm.pm_id})
                tally["switch_offs"] += 1
    return events, tally
