"""Columnar (struct-of-arrays) data-centre state — the only state.

:class:`ColumnarStore` holds *every* piece of mutable PM/VM state as
NumPy arrays keyed by PM/VM index — demand fractions, monitor counts,
placement, sleep flags, SLA accounting — plus per-PM VM membership as
insertion-ordered index lists (exportable as CSR arrays via
:meth:`ColumnarStore.csr`).
:class:`~repro.datacenter.pm.PhysicalMachine`,
:class:`~repro.datacenter.vm.VirtualMachine` and
:class:`~repro.datacenter.monitor.VmMonitor` are *thin views*: a store
reference plus an index, attributes as properties into the store, so
every protocol, baseline and metric reads and writes the same arrays
the vectorised round path operates on.

Bit-exactness contract (pinned by the golden digests and by the
differential suites in ``tests/datacenter``, which replay every history
on the per-object reference layout of
``tests/datacenter/_reference_datacenter.py``): the store performs the
float operations of a per-object walk in the *same order*.

* A PM's demand vector is the row-sequential sum of its VMs' absolute
  demands **in membership insertion order** — ``(k, R)`` ``sum(axis=0)``
  accumulates lanes sequentially (no pairwise summation on strided
  reductions), matching a ``total += vm_demand`` loop over the PM's VMs
  bit for bit.
* Whole-datacentre per-PM aggregation uses ``np.bincount`` over the
  host column, which also sums sequentially in VM-id order.
* Scalar bookkeeping updates (``+= x``) are element-wise, so the
  vectorised form performs the identical IEEE operation per element.
* The *derived-state planes* cache the first bullet's sums as plain
  Python floats for the per-contact paths; they may differ from the
  ``bincount`` aggregates in the last bit (DESIGN.md §5f).

Index-stability rules: PM index == ``pm_id`` and VM index == ``vm_id``
forever — machines are never compacted or renumbered, so a view object,
a trace event and a checkpoint row all agree on identity.  Membership
lists are the single structural truth; the ``host`` column is its
inverted index and the two are kept coherent by ``add_vm``/``remove_vm``
(the vectorised invariant check re-verifies the coherence every round).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.datacenter.pm import PhysicalMachine
from repro.datacenter.resources import (
    CPU,
    EC2_MICRO,
    HP_PROLIANT_ML110_G5,
    MEM,
    MachineSpec,
    N_RESOURCES,
)
from repro.datacenter.vm import VirtualMachine

__all__ = ["ColumnarStore"]

_EMPTY_INDEX = np.empty(0, dtype=np.intp)


class ColumnarStore:
    """All mutable data-centre state, one array per column.

    Arrays are owned by the store.  The PM view objects in :attr:`pms`
    are flyweights created at construction (every run hands them to the
    engine as node payloads); the VM views in :attr:`vms` are created
    together the first time anything reads the attribute, so a run that
    never asks for a VM object never builds them (DESIGN.md §5g).
    Demand matrices are exposed writable to the views
    (monitor rows alias them); external read access goes through the
    :class:`~repro.datacenter.cluster.DataCenter`'s read-only
    properties.
    """

    __slots__ = (
        "n_pms",
        "n_vms",
        "pm_spec",
        "vm_spec",
        "cur",
        "avg",
        "monitor_count",
        "vm_cap",
        "pm_cap",
        "vm_cpu_mips",
        "pm_cpu_mips",
        "host",
        "pm_asleep",
        "pm_active_seconds",
        "pm_saturated_seconds",
        "vm_cpu_requested",
        "vm_cpu_degraded",
        "vm_migrations",
        "members",
        "_member_index",
        "pms",
        "_vms",
        "_scr_cnt",
        "_scr_vms2",
        "_scr_vms",
        "_scr_vms_b",
        "_scr_pm_bool",
        "_scr_pm_bool2",
        "_planes_dirty",
        "pm_cur_cpu",
        "pm_cur_mem",
        "pm_avg_cpu",
        "pm_avg_mem",
        "vm_cur_cpu",
        "vm_cur_mem",
        "vm_avg_cpu",
        "vm_avg_mem",
        "vm_action",
    )

    def __init__(
        self,
        n_pms: int,
        n_vms: int,
        pm_spec: MachineSpec = HP_PROLIANT_ML110_G5,
        vm_spec: MachineSpec = EC2_MICRO,
    ) -> None:
        if n_pms <= 0:
            raise ValueError(f"n_pms must be > 0, got {n_pms}")
        if n_vms <= 0:
            raise ValueError(f"n_vms must be > 0, got {n_vms}")
        self.n_pms = int(n_pms)
        self.n_vms = int(n_vms)
        self.pm_spec = pm_spec
        self.vm_spec = vm_spec

        # Demand fractions (VM-spec relative), the monitors' backing rows.
        self.cur = np.zeros((n_vms, N_RESOURCES), dtype=np.float64)
        self.avg = np.zeros((n_vms, N_RESOURCES), dtype=np.float64)
        self.monitor_count = np.zeros(n_vms, dtype=np.int64)

        # Capacities (per machine so heterogeneous fleets stay possible).
        self.vm_cap = np.tile(vm_spec.capacity_vector(), (n_vms, 1))
        self.pm_cap = np.tile(pm_spec.capacity_vector(), (n_pms, 1))
        self.vm_cpu_mips = self.vm_cap[:, CPU].copy()
        self.pm_cpu_mips = self.pm_cap[:, CPU].copy()

        # Placement: host column (-1 = unplaced) + per-PM insertion-ordered
        # membership lists, with a lazily-built ndarray cache per PM.
        self.host = np.full(n_vms, -1, dtype=np.int64)
        self.members: List[List[int]] = [[] for _ in range(n_pms)]
        self._member_index: List[Optional[np.ndarray]] = [_EMPTY_INDEX] * n_pms

        # PM power / SLAVO state.
        self.pm_asleep = np.zeros(n_pms, dtype=bool)
        self.pm_active_seconds = np.zeros(n_pms, dtype=np.float64)
        self.pm_saturated_seconds = np.zeros(n_pms, dtype=np.float64)

        # VM SLA state.
        self.vm_cpu_requested = np.zeros(n_vms, dtype=np.float64)
        self.vm_cpu_degraded = np.zeros(n_vms, dtype=np.float64)
        self.vm_migrations = np.zeros(n_vms, dtype=np.int64)

        # Round-update scratch (never checkpointed, never read between
        # calls) so the per-round hot path allocates nothing.
        self._scr_cnt = np.empty((n_vms, 1), dtype=np.float64)
        self._scr_vms2 = np.empty((n_vms, N_RESOURCES), dtype=np.float64)
        self._scr_vms = np.empty(n_vms, dtype=np.float64)
        self._scr_vms_b = np.empty(n_vms, dtype=bool)
        self._scr_pm_bool = np.empty(n_pms, dtype=bool)
        self._scr_pm_bool2 = np.empty(n_pms, dtype=bool)

        # Derived-state planes (see below): filled by the first read, so
        # a run nothing gossips in never builds them.
        self._planes_dirty = True
        self.pm_cur_cpu: List[float] = []
        self.pm_cur_mem: List[float] = []
        self.pm_avg_cpu: List[float] = []
        self.pm_avg_mem: List[float] = []
        self.vm_cur_cpu: List[float] = []
        self.vm_cur_mem: List[float] = []
        self.vm_avg_cpu: List[float] = []
        self.vm_avg_mem: List[float] = []
        self.vm_action: List[int] = []

        # The thin PM views (flyweights, one per machine); the VM views
        # wait for the first read of :attr:`vms`.
        self.pms: List[PhysicalMachine] = [PhysicalMachine(self, i) for i in range(n_pms)]
        self._vms: Optional[List[VirtualMachine]] = None

    @property
    def vms(self) -> List[VirtualMachine]:
        """The VM views, index == vm_id: all built by the first read, one
        plain list from then on (every holder sees the same objects)."""
        views = self._vms
        if views is None:
            views = self._vms = [VirtualMachine(self, i) for i in range(self.n_vms)]
        return views

    # -- membership --------------------------------------------------------

    def member_index(self, pm_id: int) -> np.ndarray:
        """The PM's member VM ids as an ndarray, in insertion order.

        Cached until the membership changes; the cache is what keeps the
        per-exchange utilisation views cheap.
        """
        idx = self._member_index[pm_id]
        if idx is None:
            idx = np.asarray(self.members[pm_id], dtype=np.intp)
            self._member_index[pm_id] = idx
        return idx

    def add_member(self, pm_id: int, vm_id: int) -> None:
        """Append ``vm_id`` to the PM's membership (no admission checks —
        the view's ``add_vm`` validates)."""
        self.members[pm_id].append(vm_id)
        self._member_index[pm_id] = None
        self.host[vm_id] = pm_id
        if not self._planes_dirty:
            # The new member is last in insertion order, so adding its
            # demand to the running sums *is* the member-order sum.
            self.pm_cur_cpu[pm_id] += self.vm_cur_cpu[vm_id]
            self.pm_cur_mem[pm_id] += self.vm_cur_mem[vm_id]
            self.pm_avg_cpu[pm_id] += self.vm_avg_cpu[vm_id]
            self.pm_avg_mem[pm_id] += self.vm_avg_mem[vm_id]

    def remove_member(self, pm_id: int, vm_id: int) -> None:
        """Drop ``vm_id`` from the PM's membership, preserving the
        relative order of the remaining VMs."""
        members = self.members[pm_id]
        members.remove(vm_id)
        self._member_index[pm_id] = None
        self.host[vm_id] = -1
        if not self._planes_dirty:
            # A removal re-associates the sum, so the remaining members
            # are re-added from zero (``x - y`` would not be bit-exact).
            cur_cpu = cur_mem = avg_cpu = avg_mem = 0.0
            for v in members:
                cur_cpu += self.vm_cur_cpu[v]
                cur_mem += self.vm_cur_mem[v]
                avg_cpu += self.vm_avg_cpu[v]
                avg_mem += self.vm_avg_mem[v]
            self.pm_cur_cpu[pm_id] = cur_cpu
            self.pm_cur_mem[pm_id] = cur_mem
            self.pm_avg_cpu[pm_id] = avg_cpu
            self.pm_avg_mem[pm_id] = avg_mem

    def csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Membership as CSR arrays ``(indptr, indices)``.

        ``indices[indptr[p]:indptr[p + 1]]`` are PM ``p``'s VM ids in
        insertion order.  Built on demand — the analytics and invariant
        layers consume this; the hot path uses the per-PM caches.
        """
        counts = np.fromiter(
            (len(m) for m in self.members), dtype=np.int64, count=self.n_pms
        )
        indptr = np.zeros(self.n_pms + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        total = int(indptr[-1])
        indices = np.empty(total, dtype=np.intp)
        pos = 0
        for m in self.members:
            k = len(m)
            indices[pos : pos + k] = m
            pos += k
        return indptr, indices

    def apply_placement(self, hosts: np.ndarray) -> None:
        """Install a full VM→PM mapping on an empty store, vectorised.

        Membership order is that of adding the VMs one by one in
        ascending ``vm_id`` order: each PM's list is its VMs in id order
        (``argsort(kind="stable")`` preserves that).
        """
        if np.any(self.host >= 0):
            raise RuntimeError("apply_placement on a non-empty store")
        hosts = np.asarray(hosts, dtype=np.int64)
        if hosts.shape != (self.n_vms,):
            raise ValueError(
                f"expected {self.n_vms} host ids, got shape {hosts.shape}"
            )
        if np.any(hosts < 0) or np.any(hosts >= self.n_pms):
            raise ValueError("host ids out of range")
        self.host[:] = hosts
        self._planes_dirty = True
        order = np.argsort(hosts, kind="stable").astype(np.intp, copy=False)
        self._install_members(order.tolist(), order, np.bincount(hosts, minlength=self.n_pms))

    def _install_members(self, flat: List[int], index: np.ndarray, counts: np.ndarray) -> None:
        """Cut ``flat`` (and ``index``, the same ids as an ndarray) into
        consecutive per-PM membership rows of ``counts`` ids each."""
        start = 0
        for pm_id, end in enumerate(np.cumsum(counts).tolist()):
            self.members[pm_id] = flat[start:end]
            self._member_index[pm_id] = index[start:end]
            start = end

    def load_placement(self, counts: np.ndarray, vm_ids: np.ndarray) -> None:
        """Install recorded membership wholesale (checkpoint restore) from
        its CSR form: ``counts[p]`` ids of PM ``p``, consecutive in
        ``vm_ids``.  Each PM's order is preserved — it is the recorded
        float-summation order — and the host column is rebuilt after
        validating that the rows cover every VM exactly once."""
        if counts.shape != (self.n_pms,) or np.any(counts < 0):
            raise ValueError(
                f"expected {self.n_pms} placement counts, got shape {counts.shape}"
            )
        indices = np.asarray(vm_ids, dtype=np.intp)
        if (
            indices.shape != (self.n_vms,)
            or int(counts.sum()) != self.n_vms
            or indices.min(initial=0) < 0
            or np.any(np.bincount(indices, minlength=self.n_vms) != 1)
        ):
            raise ValueError(
                "placement rows must cover every VM exactly once"
            )
        self.host[indices] = np.repeat(
            np.arange(self.n_pms, dtype=np.int64), counts
        )
        self._planes_dirty = True
        self._install_members(indices.tolist(), indices, counts)

    # -- per-PM views (sequential float order, see module docstring) -------

    def pm_demand_vector(self, pm_id: int, *, use_average: bool = False) -> np.ndarray:
        """Aggregate absolute demand of the PM's VMs, uncapped.

        Bit-identical to an insertion-order ``+=`` loop over the VMs.
        """
        idx = self.member_index(pm_id)
        if idx.size == 0:
            return np.zeros(N_RESOURCES, dtype=np.float64)
        frac = self.avg if use_average else self.cur
        return (frac[idx] * self.vm_cap[idx]).sum(axis=0)

    # -- derived-state planes (what a gossip contact reads) ------------------
    #
    # ``pm_{cur,avg}_{cpu,mem}[p]`` is :meth:`pm_demand_vector` of PM ``p``
    # and ``vm_{cur,avg}_{cpu,mem}[v]`` the ``frac * vm_cap`` product of VM
    # ``v``, as Python floats; ``vm_action[v]`` is the average-based action
    # code.  Every wholesale writer of demand or placement sets the dirty
    # flag (from outside the class: :meth:`invalidate_planes`) and the next
    # reader re-derives all of them; ``add_member``/``remove_member`` keep
    # clean planes current for their two PMs.

    def invalidate_planes(self) -> None:
        """Mark the planes stale after writing ``cur``/``avg`` directly."""
        self._planes_dirty = True

    def derive_planes(self, csr: Optional[Tuple[np.ndarray, ...]] = None) -> Dict[str, list]:
        """Every plane recomputed from the columns, by name (never cached).

        Per-PM sums add one member *rank* at a time across all PMs, i.e.
        each PM's VMs in insertion order — the float order of
        :meth:`pm_demand_vector`, which ``bincount``'s VM-id order is not.
        """
        vm_cur = self.cur * self.vm_cap
        vm_avg = self.avg * self.vm_cap
        pm_cur = np.zeros((self.n_pms, N_RESOURCES), dtype=np.float64)
        pm_avg = np.zeros((self.n_pms, N_RESOURCES), dtype=np.float64)
        indptr, indices = self.csr() if csr is None else csr
        starts, counts = indptr[:-1], np.diff(indptr)
        for rank in range(int(counts.max())):
            pms = np.flatnonzero(counts > rank)
            vms = indices[starts[pms] + rank]
            pm_cur[pms] += vm_cur[vms]
            pm_avg[pms] += vm_avg[vms]
        return {
            "pm_cur_cpu": pm_cur[:, CPU].tolist(),
            "pm_cur_mem": pm_cur[:, MEM].tolist(),
            "pm_avg_cpu": pm_avg[:, CPU].tolist(),
            "pm_avg_mem": pm_avg[:, MEM].tolist(),
            "vm_cur_cpu": vm_cur[:, CPU].tolist(),
            "vm_cur_mem": vm_cur[:, MEM].tolist(),
            "vm_avg_cpu": vm_avg[:, CPU].tolist(),
            "vm_avg_mem": vm_avg[:, MEM].tolist(),
            "vm_action": self.vm_action_codes(slice(None)).tolist(),
        }

    def refresh_planes(self) -> None:
        """Re-derive every plane and clear the dirty flag."""
        for name, plane in self.derive_planes().items():
            setattr(self, name, plane)
        self._planes_dirty = False

    def stale_planes(self, csr: Optional[Tuple[np.ndarray, ...]] = None) -> List[str]:
        """Names of clean planes that differ from a fresh recompute in any
        bit — always empty unless some writer skipped the dirty flag."""
        if self._planes_dirty:
            return []
        fresh = self.derive_planes(csr)
        return [name for name, plane in fresh.items() if getattr(self, name) != plane]

    def pm_utilization(self, pm_id: int, use_average: bool = False) -> Tuple[float, float]:
        """``(cpu, mem)`` demand of one PM as capacity fractions, uncapped."""
        if self._planes_dirty:
            self.refresh_planes()
        spec = self.pm_spec
        if use_average:
            return self.pm_avg_cpu[pm_id] / spec.cpu_mips, self.pm_avg_mem[pm_id] / spec.mem_mb
        return self.pm_cur_cpu[pm_id] / spec.cpu_mips, self.pm_cur_mem[pm_id] / spec.mem_mb

    def pm_demand_with(self, pm_id: int, vm_id: int) -> Tuple[float, float]:
        """``(cpu, mem)`` current absolute demand of the PM were ``vm_id``
        added to it — the admission tests compare this to a limit."""
        if self._planes_dirty:
            self.refresh_planes()
        return (
            self.pm_cur_cpu[pm_id] + self.vm_cur_cpu[vm_id],
            self.pm_cur_mem[pm_id] + self.vm_cur_mem[vm_id],
        )

    def vm_demand_rows(self, vm_ids: Sequence[int]) -> Tuple[List[float], ...]:
        """``(avg cpu, avg mem, cur cpu, cur mem)`` absolute demands of the
        VMs, one list per plane — the profiles Alg. 1 pulls."""
        if self._planes_dirty:
            self.refresh_planes()
        return tuple(
            [plane[v] for v in vm_ids]
            for plane in (self.vm_avg_cpu, self.vm_avg_mem, self.vm_cur_cpu, self.vm_cur_mem)
        )

    def member_actions(self, pm_id: int) -> List[int]:
        """Action codes of the PM's VMs, in membership order."""
        if self._planes_dirty:
            self.refresh_planes()
        action = self.vm_action
        return [action[v] for v in self.members[pm_id]]

    def cheapest_member(self, pm_id: int, action: int) -> int:
        """The PM's VM of the given action with the least ``(current memory
        demand, vm_id)`` — ``findVM``'s migration-cost rule."""
        if self._planes_dirty:
            self.refresh_planes()
        codes, mem = self.vm_action, self.vm_cur_mem
        best, best_mem = -1, 0.0
        for v in self.members[pm_id]:
            if codes[v] == action:
                m = mem[v]
                if best < 0 or m < best_mem or (m == best_mem and v < best):
                    best, best_mem = v, m
        return best

    def members_largest_first(self, pm_id: int) -> List[int]:
        """The PM's VM ids by descending current CPU demand, ties to the
        lowest id."""
        if self._planes_dirty:
            self.refresh_planes()
        cpu = self.vm_cur_cpu
        return sorted(self.members[pm_id], key=lambda v: (-cpu[v], v))

    # -- whole-array aggregates --------------------------------------------

    def pm_demand_matrix(self, *, use_average: bool = False) -> np.ndarray:
        """(n_pms, N_RESOURCES) absolute demand aggregated per host PM,
        uncapped, sleeping PMs included (their VMs still show up)."""
        frac = self.avg if use_average else self.cur
        abs_demand = frac * self.vm_cap
        placed = self.host >= 0
        h = self.host[placed]
        out = np.empty((self.n_pms, N_RESOURCES), dtype=np.float64)
        for r in range(N_RESOURCES):
            out[:, r] = np.bincount(
                h, weights=abs_demand[placed, r], minlength=self.n_pms
            )
        return out

    def pm_cpu_demand_mips(self) -> np.ndarray:
        """(n_pms,) aggregate current CPU demand in MIPS, uncapped."""
        placed = self.host >= 0
        return np.bincount(
            self.host[placed],
            weights=self.cur[placed, CPU] * self.vm_cpu_mips[placed],
            minlength=self.n_pms,
        )

    def awake_mask(self) -> np.ndarray:
        """Boolean (n_pms,): True where the PM is awake (fresh array)."""
        return ~self.pm_asleep

    # -- the vectorised round update ---------------------------------------

    def advance_round_update(self, demands: np.ndarray, round_seconds: float) -> None:
        """Fold one round of demand samples into every column at once.

        Performs, element-wise in a per-object walk's op order: the
        monitors' ``{c, v}`` piggyback update, the per-VM requested-CPU
        accrual, and the per-PM active/saturated time accounting.
        """
        # {c, v} piggyback:  avg' = (c*avg + d) / (c + 1), through scratch
        # buffers — the op sequence (multiply, add, divide) is exactly the
        # expression's, so the result is bit-identical with zero allocation.
        counts = self._scr_cnt
        np.copyto(counts, self.monitor_count[:, None], casting="unsafe")
        acc = np.multiply(counts, self.avg, out=self._scr_vms2)
        np.add(acc, demands, out=acc)
        np.add(counts, 1.0, out=counts)
        np.divide(acc, counts, out=self.avg)
        self.cur[:] = demands
        self.monitor_count += 1
        self._planes_dirty = True
        # Per-VM absolute CPU demand, computed once and reused for both
        # the requested-MIPS accrual and the per-PM saturation test
        # (elementwise product, so multiply-then-gather == gather-then-
        # multiply bitwise).
        prod = np.multiply(demands[:, CPU], self.vm_cpu_mips, out=self._scr_vms)
        self.vm_cpu_requested += prod * round_seconds
        placed = np.greater_equal(self.host, 0, out=self._scr_vms_b)
        if placed.all():
            pm_cpu = np.bincount(self.host, weights=prod, minlength=self.n_pms)
        else:
            pm_cpu = np.bincount(
                self.host[placed], weights=prod[placed], minlength=self.n_pms
            )
        awake = np.logical_not(self.pm_asleep, out=self._scr_pm_bool)
        np.add(
            self.pm_active_seconds,
            round_seconds,
            out=self.pm_active_seconds,
            where=awake,
        )
        saturated = np.greater_equal(pm_cpu, self.pm_cpu_mips, out=self._scr_pm_bool2)
        saturated &= awake
        np.add(
            self.pm_saturated_seconds,
            round_seconds,
            out=self.pm_saturated_seconds,
            where=saturated,
        )

    def reset_accounting(self) -> None:
        """Zero the SLA accounting columns (placement/demand untouched)."""
        self.pm_active_seconds[:] = 0.0
        self.pm_saturated_seconds[:] = 0.0
        self.vm_cpu_requested[:] = 0.0
        self.vm_cpu_degraded[:] = 0.0
        self.vm_migrations[:] = 0

    # -- eviction-candidate scoring (consolidation hot path) ---------------

    def vm_action_codes(self, idx: np.ndarray, *, use_average: bool = True) -> np.ndarray:
        """State/action codes for the given VM ids, vectorised.

        Matches :func:`repro.core.states.state_code_fast` exactly: the
        level thresholds are left-open/right-closed (``searchsorted``
        side="left" over the upper bounds), with ``x >= 1.0`` pinned to
        the Overload level.  Demand fractions are the VM-spec-relative
        monitor rows, as in :func:`repro.core.states.vm_action`.
        """
        from repro.core.states import N_LEVELS, level_indices

        frac = self.avg if use_average else self.cur
        levels = level_indices(frac[idx])
        return levels[:, 0] * N_LEVELS + levels[:, 1]
