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

from repro.datacenter.power import LinearPowerModel
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
    # :meth:`cost_by_id` prices a move with these two; anything else that
    # prices one (the tests' per-object reference) shares them, so both
    # perform the same float operations.

    def _duration(self, used_mem_mb: float, nominal_mem_mb: float, link_mbps: float) -> float:
        """Migration time: the VM's *used* memory, floored at 10 % of its
        nominal allocation (a live migration always moves at least the
        working set of a mostly-idle guest), over the slower end's
        migration bandwidth."""
        mem_mb = max(used_mem_mb, 0.1 * nominal_mem_mb)
        check_positive(link_mbps, "link bandwidth")
        available_mbps = link_mbps * self.bandwidth_fraction
        # MB -> Mbit (x8), then divide by Mbit/s.
        return (mem_mb * 8.0) / available_mbps

    def _power_delta(self, cpu_utilization: float) -> float:
        """``P^lm - P^idle`` for an endpoint at this CPU utilisation."""
        u_lm = min(1.0, cpu_utilization + self.migration_cpu_overhead)
        return self.power_model.power(u_lm) - self.power_model.idle_watts

    # -- the full event ------------------------------------------------------

    def cost_by_id(
        self, round_index: int, store: "ColumnarStore", vm_id: int, src: int, dst: int
    ) -> MigrationRecord:
        """Price moving VM ``vm_id`` of ``store`` from PM ``src`` to PM
        ``dst`` without performing it, read off the store's planes by id:
        duration, eq. 3's energy at both endpoints' current CPU
        utilisations, and the C_d term (10 % of the VM's CPU work during
        the move).  The planes hold Python floats, so with Python-int ids
        every field is a Python number."""
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
