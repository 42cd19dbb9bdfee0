"""Physical machines.

A PM hosts a set of VMs and exposes the utilisation views the protocols
need:

* ``current_utilization()`` — aggregate of hosted VMs' *current* demands,
  as PM-capacity fractions, capped at 1.0 per resource (a machine cannot
  deliver more than it has; excess demand is what constitutes overload);
* ``average_utilization()`` — same using the VMs' *running-average*
  demands, which is what GLAP's state calibration uses before an action;
* overload / capacity predicates, and SLAVO time accounting (time spent
  at 100% CPU vs time active).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.datacenter.resources import CPU
from repro.datacenter.vm import VirtualMachine

if TYPE_CHECKING:  # pragma: no cover - the store constructs its views
    from repro.datacenter.columnar import ColumnarStore

__all__ = ["PhysicalMachine"]


class PhysicalMachine:
    """A host with bounded CPU/memory capacity and a VM set, as a view of
    row ``pm_id`` of a :class:`~repro.datacenter.columnar.ColumnarStore`.

    VM set, sleep flag and SLAVO accumulators live in the store.  The
    array-valued utilisation views are computed from the uncached
    :meth:`demand_vector`; the scalar predicates a gossip contact calls
    (``is_overloaded``, ``total_utilization``, ``peak_utilization``,
    ``fits``, ``cpu_utilization``) do the same arithmetic on floats read
    from the store's planes, and the differential suite pins them to the
    per-object reference's answers.
    """

    __slots__ = ("store", "pm_id", "spec")

    def __init__(self, store: "ColumnarStore", pm_id: int) -> None:
        self.store = store
        self.pm_id = pm_id
        self.spec = store.pm_spec

    # -- state held in the store's columns -----------------------------------

    @property
    def asleep(self) -> bool:
        return bool(self.store.pm_asleep[self.pm_id])

    @asleep.setter
    def asleep(self, value: bool) -> None:
        self.store.pm_asleep[self.pm_id] = value

    # SLAVO bookkeeping: T_a (active) and T_s (at 100% CPU) in seconds.

    @property
    def active_seconds(self) -> float:
        return float(self.store.pm_active_seconds[self.pm_id])

    @active_seconds.setter
    def active_seconds(self, value: float) -> None:
        self.store.pm_active_seconds[self.pm_id] = value

    @property
    def saturated_seconds(self) -> float:
        return float(self.store.pm_saturated_seconds[self.pm_id])

    @saturated_seconds.setter
    def saturated_seconds(self, value: float) -> None:
        self.store.pm_saturated_seconds[self.pm_id] = value

    # -- VM set --------------------------------------------------------------

    @property
    def vms(self) -> List[VirtualMachine]:
        """The hosted VMs, in membership insertion order."""
        store = self.store
        views = store.vms
        return [views[v] for v in store.members[self.pm_id]]

    @property
    def vm_count(self) -> int:
        return len(self.store.members[self.pm_id])

    @property
    def is_empty(self) -> bool:
        return not self.store.members[self.pm_id]

    def has_vm(self, vm_id: int) -> bool:
        return 0 <= vm_id < self.store.n_vms and int(self.store.host[vm_id]) == self.pm_id

    def add_vm(self, vm: VirtualMachine) -> None:
        """Place ``vm`` on this PM.  No admission control here — policies
        decide; the PM only guarantees bookkeeping consistency."""
        if self.has_vm(vm.vm_id):
            raise ValueError(f"VM {vm.vm_id} already on PM {self.pm_id}")
        if vm.host_id is not None:
            raise ValueError(
                f"VM {vm.vm_id} still assigned to PM {vm.host_id}; remove it first"
            )
        self.store.add_member(self.pm_id, vm.vm_id)

    def remove_vm(self, vm_id: int) -> VirtualMachine:
        if not self.has_vm(vm_id):
            raise KeyError(f"VM {vm_id} not on PM {self.pm_id}")
        self.store.remove_member(self.pm_id, vm_id)
        return self.store.vms[vm_id]

    # -- utilisation views ------------------------------------------------------

    def demand_vector(self, *, use_average: bool = False) -> np.ndarray:
        """Total VM demand in absolute units ([MIPS, MB]), uncapped."""
        return self.store.pm_demand_vector(self.pm_id, use_average=use_average)

    def utilization(self, *, use_average: bool = False, cap: bool = True) -> np.ndarray:
        """Per-resource utilisation as PM-capacity fractions."""
        u = self.demand_vector(use_average=use_average) / self.spec.capacity_vector()
        if cap:
            np.minimum(u, 1.0, out=u)
        return u

    def current_utilization(self) -> np.ndarray:
        return self.utilization(use_average=False)

    def average_utilization(self) -> np.ndarray:
        return self.utilization(use_average=True)

    def cpu_utilization(self) -> float:
        """Current CPU utilisation fraction (capped at 1)."""
        return min(1.0, self.store.pm_utilization(self.pm_id)[0])

    def total_utilization(self) -> float:
        """Sum of per-resource current utilisations — the scalar Alg. 3
        uses to decide which side of an exchange is the sender."""
        cpu, mem = self.store.pm_utilization(self.pm_id)
        return min(cpu, 1.0) + min(mem, 1.0)

    def peak_utilization(self) -> float:
        """Largest per-resource current utilisation (capped at 1) — the
        scalar Alg. 1 compares with its training threshold."""
        cpu, mem = self.store.pm_utilization(self.pm_id)
        return min(max(cpu, mem), 1.0)

    # -- predicates ---------------------------------------------------------------

    def is_overloaded(self, *, use_average: bool = False) -> bool:
        """Overloaded iff demand meets/exceeds capacity in ANY resource
        (paper: 'at least one of the resources')."""
        cpu, mem = self.store.pm_utilization(self.pm_id, use_average)
        return cpu >= 1.0 or mem >= 1.0

    def fits(self, vm: VirtualMachine, *, headroom: float = 0.0) -> bool:
        """Capacity check for admitting ``vm`` (a view of the same store)
        at its *current* demand.

        ``headroom`` reserves a fraction of capacity (0.0 = fill to the
        brim, which is GLAP's setting: safety comes from Q_in, not from a
        threshold)."""
        if not 0.0 <= headroom < 1.0:
            raise ValueError(f"headroom must be in [0, 1), got {headroom}")
        cpu, mem = self.store.pm_demand_with(self.pm_id, vm.vm_id)
        keep = 1.0 - headroom
        return cpu <= self.spec.cpu_mips * keep and mem <= self.spec.mem_mb * keep

    # -- SLAVO accounting ------------------------------------------------------------

    def account_round(
        self, round_seconds: float, cpu_demand_mips: Optional[float] = None
    ) -> None:
        """Accrue active/saturated time for this round (call while awake)
        — what ``ColumnarStore.advance_round_update`` does for every awake
        PM at once, for one machine.

        ``cpu_demand_mips``: the PM's aggregate CPU demand if the caller
        already holds it; omitted, it is summed from the hosted VMs.
        """
        if round_seconds < 0:
            raise ValueError(f"round_seconds must be >= 0, got {round_seconds}")
        self.active_seconds += round_seconds
        if cpu_demand_mips is None:
            cpu_demand_mips = float(self.demand_vector()[CPU])
        if cpu_demand_mips >= self.spec.cpu_mips:
            self.saturated_seconds += round_seconds

    def __repr__(self) -> str:
        return (
            f"PhysicalMachine(id={self.pm_id}, "
            f"vms={sorted(self.store.members[self.pm_id])}, asleep={self.asleep})"
        )
