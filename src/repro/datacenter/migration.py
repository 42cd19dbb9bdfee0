"""Live-migration time, energy and SLA cost model.

Paper section V-B:

* migration time "strongly varies with VM's memory size and available
  transmission bandwidth at the source and destination servers":
  ``tau = mem_bytes / available_bandwidth`` where the available bandwidth
  is a configurable fraction of the NIC (live migration shares the link
  with tenant traffic; 0.5 is the standard assumption from Beloglazov);
* energy overhead of migrating a VM from i to j (eq. 3, Strunk & Dargie):
  ``E = ((P_i^lm - P_i^idle) + (P_j^lm - P_j^idle)) * tau``
  where ``P^lm`` is the machine's power draw during migration — modelled
  as its linear power at (utilisation + migration CPU overhead);
* performance degradation of the migrated VM: 10% of its CPU utilisation
  during the migration (the ``C_d`` numerator of SLALM).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.datacenter.pm import PhysicalMachine
from repro.datacenter.power import LinearPowerModel
from repro.datacenter.vm import VirtualMachine
from repro.util.validation import check_fraction, check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.datacenter.columnar import ColumnarStore

__all__ = ["MigrationRecord", "MigrationModel"]


@dataclass(frozen=True)
class MigrationRecord:
    """Immutable log entry for one completed live migration."""

    round_index: int
    vm_id: int
    src_pm: int
    dst_pm: int
    duration_s: float
    energy_j: float
    degraded_mips_s: float


class MigrationModel:
    """Computes migration duration, energy overhead and SLA degradation."""

    def __init__(
        self,
        power_model: LinearPowerModel | None = None,
        bandwidth_fraction: float = 0.5,
        migration_cpu_overhead: float = 0.1,
        degradation_fraction: float = 0.1,
    ) -> None:
        self.power_model = power_model if power_model is not None else LinearPowerModel()
        self.bandwidth_fraction = check_fraction(bandwidth_fraction, "bandwidth_fraction")
        if self.bandwidth_fraction == 0.0:
            raise ValueError("bandwidth_fraction must be > 0")
        self.migration_cpu_overhead = check_fraction(
            migration_cpu_overhead, "migration_cpu_overhead"
        )
        self.degradation_fraction = check_fraction(
            degradation_fraction, "degradation_fraction"
        )

    # -- components --------------------------------------------------------
    #
    # The object methods and :meth:`cost_by_id` read their inputs from
    # different places and share the arithmetic below, so both price a
    # move with the same float operations.

    def _duration(self, used_mem_mb: float, nominal_mem_mb: float, link_mbps: float) -> float:
        mem_mb = max(used_mem_mb, 0.1 * nominal_mem_mb)
        check_positive(link_mbps, "link bandwidth")
        available_mbps = link_mbps * self.bandwidth_fraction
        # MB -> Mbit (x8), then divide by Mbit/s.
        return (mem_mb * 8.0) / available_mbps

    def _power_delta(self, cpu_utilization: float) -> float:
        """``P^lm - P^idle`` for an endpoint at this CPU utilisation."""
        u_lm = min(1.0, cpu_utilization + self.migration_cpu_overhead)
        return self.power_model.power(u_lm) - self.power_model.idle_watts

    def duration_s(self, vm: VirtualMachine, src: PhysicalMachine, dst: PhysicalMachine) -> float:
        """Migration time: VM memory over the slower end's migration bandwidth.

        Uses the VM's *used* memory (current demand), floored at 10% of
        its nominal allocation — a live migration always moves at least
        the working set of a mostly-idle guest.
        """
        return self._duration(
            vm.monitor.current[1] * vm.spec.mem_mb,
            vm.spec.mem_mb,
            min(src.spec.bandwidth_mbps, dst.spec.bandwidth_mbps),
        )

    def energy_j(
        self,
        vm: VirtualMachine,
        src: PhysicalMachine,
        dst: PhysicalMachine,
        duration_s: float | None = None,
    ) -> float:
        """Energy overhead of the migration (paper eq. 3)."""
        tau = self.duration_s(vm, src, dst) if duration_s is None else duration_s
        return (
            self._power_delta(src.cpu_utilization()) + self._power_delta(dst.cpu_utilization())
        ) * tau

    def degradation_mips_s(self, vm: VirtualMachine, duration_s: float) -> float:
        """C_d contribution: 10% of the VM's CPU work during the migration."""
        return self.degradation_fraction * vm.cpu_demand_mips() * duration_s

    # -- the full event ------------------------------------------------------

    def cost_of(
        self,
        round_index: int,
        vm: VirtualMachine,
        src: PhysicalMachine,
        dst: PhysicalMachine,
    ) -> MigrationRecord:
        """Price a prospective migration without performing it."""
        tau = self.duration_s(vm, src, dst)
        return MigrationRecord(
            round_index=round_index,
            vm_id=vm.vm_id,
            src_pm=src.pm_id,
            dst_pm=dst.pm_id,
            duration_s=tau,
            energy_j=self.energy_j(vm, src, dst, duration_s=tau),
            degraded_mips_s=self.degradation_mips_s(vm, tau),
        )

    def cost_by_id(
        self, round_index: int, store: "ColumnarStore", vm_id: int, src: int, dst: int
    ) -> MigrationRecord:
        """:meth:`cost_of` for VM ``vm_id`` of ``store`` moving from PM
        ``src`` to PM ``dst``, read off the store's planes by id: the
        values the views would hand :meth:`cost_of`.  The planes hold
        Python floats, so with Python-int ids every field is a Python
        number, as in a :meth:`cost_of` record."""
        store.ensure_planes()
        pm_spec, cpu_mips = store.pm_spec, store.pm_spec.cpu_mips
        tau = self._duration(
            store.vm_cur_mem[vm_id], store.vm_spec.mem_mb, pm_spec.bandwidth_mbps
        )
        energy = (
            self._power_delta(min(1.0, store.pm_cur_cpu[src] / cpu_mips))
            + self._power_delta(min(1.0, store.pm_cur_cpu[dst] / cpu_mips))
        ) * tau
        return MigrationRecord(
            round_index=round_index,
            vm_id=vm_id,
            src_pm=src,
            dst_pm=dst,
            duration_s=tau,
            energy_j=energy,
            degraded_mips_s=self.degradation_fraction * store.vm_cur_cpu[vm_id] * tau,
        )
