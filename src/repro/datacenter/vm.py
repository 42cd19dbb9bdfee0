"""Virtual machines.

A VM carries its nominal spec (EC2 micro in the paper's experiments), a
monitor with its current / average demand fractions, and bookkeeping for
SLA accounting (total CPU requested, degradation suffered during
migrations — the ``C_r`` and ``C_d`` of the paper's SLALM metric).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.datacenter.monitor import VmMonitor
from repro.datacenter.resources import CPU, MachineSpec

if TYPE_CHECKING:  # pragma: no cover - the store constructs its views
    from repro.datacenter.columnar import ColumnarStore

__all__ = ["VirtualMachine"]


class VirtualMachine:
    """A VM with time-varying demand, as a view of row ``vm_id`` of a
    :class:`~repro.datacenter.columnar.ColumnarStore` (the store builds
    the views, nothing else does).

    Demand fractions (``monitor.current`` / ``monitor.average``) are
    relative to the VM's own spec; :meth:`demand_on` converts them into
    the absolute units of a host's capacity vector.
    """

    __slots__ = ("store", "vm_id", "spec", "monitor")

    def __init__(self, store: "ColumnarStore", vm_id: int) -> None:
        self.store = store
        self.vm_id = vm_id
        self.spec = store.vm_spec
        self.monitor = VmMonitor(store, vm_id)

    # -- state held in the store's columns -----------------------------------

    @property
    def host_id(self) -> Optional[int]:
        """The hosting PM, ``None`` while unplaced.  Read-only: placement
        changes go through ``PhysicalMachine.add_vm`` / ``remove_vm``,
        which keep the membership lists and this column coherent."""
        h = self.store.host[self.vm_id]
        return None if h < 0 else int(h)

    # SLA bookkeeping (mips-seconds), see repro.metrics.sla.

    @property
    def cpu_requested_mips_s(self) -> float:
        return float(self.store.vm_cpu_requested[self.vm_id])

    @cpu_requested_mips_s.setter
    def cpu_requested_mips_s(self, value: float) -> None:
        self.store.vm_cpu_requested[self.vm_id] = value

    @property
    def cpu_degraded_mips_s(self) -> float:
        return float(self.store.vm_cpu_degraded[self.vm_id])

    @cpu_degraded_mips_s.setter
    def cpu_degraded_mips_s(self, value: float) -> None:
        self.store.vm_cpu_degraded[self.vm_id] = value

    @property
    def migrations(self) -> int:
        return int(self.store.vm_migrations[self.vm_id])

    @migrations.setter
    def migrations(self, value: int) -> None:
        self.store.vm_migrations[self.vm_id] = value

    # -- demand views ------------------------------------------------------

    def current_demand_abs(self) -> np.ndarray:
        """Current demand in absolute units ([MIPS, MB])."""
        return self.monitor.current * self.spec.capacity_vector()

    def average_demand_abs(self) -> np.ndarray:
        """Running-average demand in absolute units ([MIPS, MB])."""
        return self.monitor.average * self.spec.capacity_vector()

    def demand_on(self, host_spec: MachineSpec, *, use_average: bool = False) -> np.ndarray:
        """Demand as a fraction of ``host_spec``'s capacity, per resource."""
        abs_demand = self.average_demand_abs() if use_average else self.current_demand_abs()
        return abs_demand / host_spec.capacity_vector()

    def cpu_demand_mips(self) -> float:
        """Current CPU demand in MIPS."""
        return float(self.monitor.current[CPU] * self.spec.cpu_mips)

    # -- trace hookup ----------------------------------------------------------

    def observe_demand(self, demand_fractions: np.ndarray, round_seconds: float) -> None:
        """Record this round's demand sample and accrue requested CPU time."""
        self.monitor.observe(demand_fractions)
        self.cpu_requested_mips_s += self.cpu_demand_mips() * round_seconds

    # -- migration bookkeeping ---------------------------------------------------

    def record_migration_degradation(self, degraded_mips_s: float) -> None:
        """Accrue the C_d term: CPU work lost to one live migration."""
        if degraded_mips_s < 0:
            raise ValueError(f"degraded_mips_s must be >= 0, got {degraded_mips_s}")
        self.cpu_degraded_mips_s += degraded_mips_s
        self.migrations += 1

    def __repr__(self) -> str:
        return (
            f"VirtualMachine(id={self.vm_id}, host={self.host_id}, "
            f"cur={np.round(self.monitor.current, 3)})"
        )
