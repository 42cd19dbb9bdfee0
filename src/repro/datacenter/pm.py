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

from typing import Dict, List, Optional

import numpy as np

from repro.datacenter.resources import HP_PROLIANT_ML110_G5, MachineSpec, N_RESOURCES
from repro.datacenter.vm import VirtualMachine

__all__ = ["PhysicalMachine"]


class PhysicalMachine:
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
        if pm_id < 0:
            raise ValueError(f"pm_id must be >= 0, got {pm_id}")
        self.pm_id = int(pm_id)
        self.spec = spec
        self._vms: Dict[int, VirtualMachine] = {}
        # SLAVO bookkeeping: T_a (active) and T_s (at 100% CPU) in seconds.
        self.active_seconds = 0.0
        self.saturated_seconds = 0.0
        self.asleep = False

    # -- VM set --------------------------------------------------------------

    @property
    def vms(self) -> List[VirtualMachine]:
        return list(self._vms.values())

    @property
    def vm_count(self) -> int:
        return len(self._vms)

    @property
    def is_empty(self) -> bool:
        return not self._vms

    def has_vm(self, vm_id: int) -> bool:
        return vm_id in self._vms

    def add_vm(self, vm: VirtualMachine) -> None:
        """Place ``vm`` on this PM.  No admission control here — policies
        decide; the PM only guarantees bookkeeping consistency."""
        if vm.vm_id in self._vms:
            raise ValueError(f"VM {vm.vm_id} already on PM {self.pm_id}")
        if vm.host_id is not None:
            raise ValueError(
                f"VM {vm.vm_id} still assigned to PM {vm.host_id}; remove it first"
            )
        self._vms[vm.vm_id] = vm
        vm.host_id = self.pm_id

    def remove_vm(self, vm_id: int) -> VirtualMachine:
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
        demand = sum(vm.cpu_demand_mips() for vm in self._vms.values())
        return min(1.0, demand / self.spec.cpu_mips)

    def total_utilization(self) -> float:
        """Sum of per-resource current utilisations — the scalar Alg. 3
        uses to decide which side of an exchange is the sender."""
        return float(self.current_utilization().sum())

    def peak_utilization(self) -> float:
        """Largest per-resource current utilisation (capped at 1) — the
        scalar Alg. 1 compares with its training threshold."""
        return float(self.current_utilization().max())

    # -- predicates ---------------------------------------------------------------

    def is_overloaded(self, *, use_average: bool = False) -> bool:
        """Overloaded iff demand meets/exceeds capacity in ANY resource
        (paper: 'at least one of the resources')."""
        u = self.utilization(use_average=use_average, cap=False)
        return bool(np.any(u >= 1.0))

    def fits(self, vm: VirtualMachine, *, headroom: float = 0.0) -> bool:
        """Capacity check for admitting ``vm`` at its *current* demand.

        ``headroom`` reserves a fraction of capacity (0.0 = fill to the
        brim, which is GLAP's setting: safety comes from Q_in, not from a
        threshold)."""
        if not 0.0 <= headroom < 1.0:
            raise ValueError(f"headroom must be in [0, 1), got {headroom}")
        after = self.demand_vector() + vm.current_demand_abs()
        limit = self.spec.capacity_vector() * (1.0 - headroom)
        return bool(np.all(after <= limit))

    # -- SLAVO accounting ------------------------------------------------------------

    def account_round(
        self, round_seconds: float, cpu_demand_mips: Optional[float] = None
    ) -> None:
        """Accrue active/saturated time for this round (call while awake).

        ``cpu_demand_mips`` lets the caller pass the PM's already-computed
        aggregate CPU demand (the :class:`DataCenter` derives it for all
        PMs at once from the round's demand matrix); omitted, it is summed
        from the hosted VMs.
        """
        if round_seconds < 0:
            raise ValueError(f"round_seconds must be >= 0, got {round_seconds}")
        self.active_seconds += round_seconds
        if cpu_demand_mips is None:
            cpu_demand_mips = sum(vm.cpu_demand_mips() for vm in self._vms.values())
        if cpu_demand_mips >= self.spec.cpu_mips:
            self.saturated_seconds += round_seconds

    def __repr__(self) -> str:
        return (
            f"PhysicalMachine(id={self.pm_id}, vms={sorted(self._vms)}, "
            f"asleep={self.asleep})"
        )
