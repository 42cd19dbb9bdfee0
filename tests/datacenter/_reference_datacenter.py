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
  halves of the checkpoint capture/restore;
* the object-side *reader specifications* the production code's store
  readers must answer like: :func:`reference_pm_state`,
  :func:`reference_vm_action`, :func:`reference_find_vm` (Alg. 3's
  ``findVM``), :func:`reference_admits` / :func:`reference_largest_first`
  (GRMP) and :func:`reference_check_invariants` (the per-object walk).

Shares nothing with the store or its views: from ``repro`` it imports
only the hardware specs, the migration cost model (duck-typed over
``vm`` / ``pm``) and the level helpers of ``repro.core.states``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.states import state_of_utilization
from repro.datacenter.migration import MigrationModel, MigrationRecord
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
    "reference_pm_state",
    "reference_vm_action",
    "reference_find_vm",
    "reference_admits",
    "reference_largest_first",
    "reference_check_invariants",
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
        record = self.migration_model.cost_of(self.current_round, vm, src, dst)
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
