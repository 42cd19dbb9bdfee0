"""The data centre: PM/VM populations, placement and migration plumbing.

:class:`DataCenter` owns every PM and VM, performs the initial random
VM→PM mapping (identical across policies for a fair comparison, per the
paper's section V-A), refreshes demands from a trace each round, and is
the single chokepoint through which *all* policies migrate VMs — so
migration counting, energy and SLA accounting are uniform across GLAP
and the baselines.

All PM/VM state lives in one :class:`~repro.datacenter.columnar.ColumnarStore`
(``dc.store``); ``dc.pms`` / ``dc.vms`` are the store's lists of thin
views into it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

import numpy as np

from repro.datacenter.columnar import ColumnarStore
from repro.datacenter.migration import MigrationModel, MigrationRecord
from repro.datacenter.pm import PhysicalMachine
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.datacenter.resources import (
    CPU,
    EC2_MICRO,
    HP_PROLIANT_ML110_G5,
    MachineSpec,
    N_RESOURCES,
)
from repro.datacenter.vm import VirtualMachine
from repro.util.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - break the traces<->datacenter cycle
    from repro.traces.base import TraceSource

__all__ = ["DataCenter"]


class DataCenter:
    """PMs + VMs + trace + migration accounting.

    Parameters
    ----------
    n_pms:
        Number of physical machines.
    n_vms:
        Number of virtual machines (paper: ``ratio * n_pms``).
    trace:
        Source of per-VM demand fractions per round.
    round_seconds:
        Simulated wall-clock duration of one round (paper: 120 s).
    pm_spec / vm_spec:
        Hardware models.
    migration_model:
        Cost model shared by every policy.
    """

    def __init__(
        self,
        n_pms: int,
        n_vms: int,
        trace: "TraceSource",
        round_seconds: float = 120.0,
        pm_spec: MachineSpec = HP_PROLIANT_ML110_G5,
        vm_spec: MachineSpec = EC2_MICRO,
        migration_model: Optional[MigrationModel] = None,
    ) -> None:
        if n_pms <= 0:
            raise ValueError(f"n_pms must be > 0, got {n_pms}")
        if n_vms <= 0:
            raise ValueError(f"n_vms must be > 0, got {n_vms}")
        if trace.n_vms < n_vms:
            raise ValueError(
                f"trace provides {trace.n_vms} VM series but {n_vms} VMs requested"
            )
        self.round_seconds = check_positive(round_seconds, "round_seconds")
        #: The struct-of-arrays state store.  All hot-path array access
        #: goes through it; ``pms`` / ``vms`` are the store's own lists of
        #: flyweight views whose attributes are properties into the same
        #: arrays — the VM views only from the first read of ``vms`` on.
        self.store = ColumnarStore(n_pms, n_vms, pm_spec=pm_spec, vm_spec=vm_spec)
        self.pms: Sequence[PhysicalMachine] = self.store.pms
        self.trace = trace
        self.migration_model = (
            migration_model if migration_model is not None else MigrationModel()
        )
        self.migrations: List[MigrationRecord] = []
        self.current_round = -1  # no demand observed yet
        #: Structured event tracer (no-op by default; the runner installs
        #: a real one for `--trace` runs).  Never consumes randomness.
        self.tracer: Tracer = NULL_TRACER
        #: Optional migration observer, called as ``observer(record)``
        #: right after each record is logged.  Like ``Network.observer``
        #: it must be pure accounting: no state change, no randomness
        #: (the cross-shard ledger in :mod:`repro.experiments.sharding`
        #: hangs off this hook).
        self.migration_observer: Optional[Callable[[MigrationRecord], None]] = None

    # -- lookups ----------------------------------------------------------

    @property
    def vms(self) -> Sequence[VirtualMachine]:
        """Every VM, index == vm_id.  The first read has the store build
        the views, so a run that never asks for a VM object never pays
        for them (DESIGN.md §5g)."""
        return self.store.vms

    def pm(self, pm_id: int) -> PhysicalMachine:
        # pm_id == list index forever; the range check keeps ``KeyError``
        # for unknown ids (a bare index would accept negative ones).
        if not 0 <= pm_id < len(self.pms):
            raise KeyError(f"no PM {pm_id}")
        return self.pms[pm_id]

    def vm(self, vm_id: int) -> VirtualMachine:
        if not 0 <= vm_id < self.store.n_vms:
            raise KeyError(f"no VM {vm_id}")
        return self.vms[vm_id]

    @property
    def n_pms(self) -> int:
        return len(self.pms)

    @property
    def n_vms(self) -> int:
        return self.store.n_vms

    # -- initial placement ---------------------------------------------------

    def place_randomly(self, rng: np.random.Generator) -> None:
        """Uniform random initial VM→PM mapping (paper section V-A).

        The mapping respects nothing but randomness — overcommitted PMs at
        round 0 are possible and give consolidation something to fix.
        """
        if np.any(self.placement() >= 0):
            raise RuntimeError("place_randomly called on a non-empty data centre")
        hosts = rng.integers(0, self.n_pms, size=self.n_vms)
        self.apply_placement(hosts)

    def apply_placement(self, hosts: Sequence[int]) -> None:
        """Install an explicit VM→PM mapping (index = vm_id, value = pm_id).

        Used to replay the *same* initial mapping across all policies.
        """
        if len(hosts) != self.n_vms:
            raise ValueError(f"expected {self.n_vms} host ids, got {len(hosts)}")
        if not np.any(self.store.host >= 0):
            # Vectorised install on an empty store; membership order is
            # ascending vm_id per PM, exactly as the loop below builds it.
            self.store.apply_placement(np.asarray(hosts, dtype=np.int64))
            return
        for vm, host in zip(self.vms, hosts):
            if vm.host_id is not None:
                self.pm(vm.host_id).remove_vm(vm.vm_id)
            self.pm(int(host)).add_vm(vm)

    def placement(self) -> np.ndarray:
        """Current VM→PM mapping as an array (``-1`` if unplaced)."""
        return self.store.host.copy()

    # -- per-round demand refresh ------------------------------------------------

    def advance_round(self) -> int:
        """Move to the next trace round: refresh all VM demands, accrue
        PM active/saturated time.  Returns the new round index.

        The refresh is one whole-array update of the store's columns:
        monitors, SLALM accrual and SLAVO accounting in a handful of
        vector ops.
        """
        self.current_round += 1
        demands = np.asarray(
            self.trace.demands_at(self.current_round), dtype=np.float64
        )[: self.n_vms]
        if demands.shape != (self.n_vms, N_RESOURCES):
            raise ValueError(
                f"trace returned demand shape {demands.shape}, expected "
                f"({self.n_vms}, {N_RESOURCES})"
            )
        if np.any(demands < 0.0) or np.any(demands > 1.0):
            raise ValueError("demand fractions must be in [0, 1]")
        self.store.advance_round_update(demands, self.round_seconds)
        return self.current_round

    # -- migration (the single chokepoint) ------------------------------------------

    def migrate(self, vm_id: int, dst_pm_id: int) -> MigrationRecord:
        """Live-migrate a VM to ``dst_pm_id`` with full cost accounting.

        Raises if the VM is unplaced, the destination is the source, or
        the destination is asleep (policies must wake PMs explicitly).
        """
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
        if self.migration_observer is not None:
            self.migration_observer(record)
        if self.tracer.enabled:
            self.tracer.emit(
                "migration",
                self.current_round,
                src.pm_id,
                vm=vm.vm_id,
                dst=dst.pm_id,
                energy_j=record.energy_j,
                duration_s=record.duration_s,
            )
        return record

    def reset_accounting(self) -> None:
        """Zero SLA and migration accounting (between warmup and
        evaluation) without touching placement, demand or sleep state."""
        self.migrations.clear()
        self.store.reset_accounting()

    # -- aggregate views -----------------------------------------------------------

    def active_pms(self) -> List[PhysicalMachine]:
        pms = self.pms
        return [pms[i] for i in np.flatnonzero(~self.store.pm_asleep)]

    def active_count(self) -> int:
        return int(np.count_nonzero(~self.store.pm_asleep))

    def awake_mask(self) -> np.ndarray:
        """Boolean (n_pms,) array: True where the PM is awake (a fresh
        array each call — safe for callers to mask/index with)."""
        return self.store.awake_mask()

    def vm_demand_matrix(self, *, use_average: bool = False) -> np.ndarray:
        """(n_vms, N_RESOURCES) absolute demand ([MIPS, MB]) of every VM —
        one whole-array multiply, row ``i`` bit-equal to
        ``vms[i].current_demand_abs()`` (a fresh array each call)."""
        store = self.store
        return (store.avg if use_average else store.cur) * store.vm_cap

    def pm_demand_matrix(self, *, use_average: bool = False) -> np.ndarray:
        """(n_pms, N_RESOURCES) absolute demand ([MIPS, MB]) aggregated
        per host PM, uncapped; sleep state is ignored (a sleeping PM's
        hosted VMs still show up, as in ``PhysicalMachine.demand_vector``).

        Returned read-only: it is a derived snapshot, and freezing it
        guarantees a caller mutating its copy of "the utilisations"
        cannot silently corrupt simulator state.
        """
        out = self.store.pm_demand_matrix(use_average=use_average)
        out.setflags(write=False)
        return out

    def pm_cpu_demand_mips(self) -> np.ndarray:
        """(n_pms,) aggregate current CPU demand in MIPS, uncapped."""
        return self.store.pm_cpu_demand_mips()

    def cpu_utilizations(self, demand: Optional[np.ndarray] = None) -> np.ndarray:
        """(n_pms,) current CPU utilisation fractions, capped at 1
        (vectorised counterpart of ``PhysicalMachine.cpu_utilization``).
        Returned read-only — see :meth:`pm_demand_matrix`.

        ``demand``: a current :meth:`pm_demand_matrix` the caller already
        holds; its CPU column is bit-equal to :meth:`pm_cpu_demand_mips`
        (the same products summed by the same ``bincount``)."""
        cpu = self.pm_cpu_demand_mips() if demand is None else demand[:, CPU]
        u = cpu / self.store.pm_cpu_mips
        np.minimum(u, 1.0, out=u)
        u.setflags(write=False)
        return u

    def overloaded_count(self, demand: Optional[np.ndarray] = None) -> int:
        """Awake PMs at/over capacity in any resource (``demand``: as in
        :meth:`cpu_utilizations`)."""
        if demand is None:
            demand = self.pm_demand_matrix()
        overloaded = np.any(demand / self.store.pm_cap >= 1.0, axis=1)
        return int(np.count_nonzero(overloaded & self.awake_mask()))

    def utilization_matrix(self, *, use_average: bool = False) -> np.ndarray:
        """(n_pms, N_RESOURCES) utilisation snapshot; sleeping PMs are 0.
        Returned read-only — see :meth:`pm_demand_matrix`."""
        u = self.pm_demand_matrix(use_average=use_average) / self.store.pm_cap
        np.minimum(u, 1.0, out=u)
        u[~self.awake_mask()] = 0.0
        u.setflags(write=False)
        return u

    def total_migration_energy_j(self) -> float:
        return float(sum(m.energy_j for m in self.migrations))

    def migration_count(self) -> int:
        return len(self.migrations)

    def __repr__(self) -> str:
        return (
            f"DataCenter(pms={self.n_pms}, vms={self.n_vms}, "
            f"round={self.current_round}, migrations={len(self.migrations)})"
        )
