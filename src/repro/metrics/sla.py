"""SLA violation metrics (paper equations 1-2, after Beloglazov & Buyya).

::

    SLAVO = (1/N) * sum_i  T_s_i / T_a_i      (overload-time fraction)
    SLALM = (1/M) * sum_j  C_d_j / C_r_j      (migration degradation)
    SLAV  = SLAVO * SLALM

* ``T_s_i`` — accumulated time PM *i* spent at 100% CPU;
* ``T_a_i`` — total time PM *i* was active;
* ``C_d_j`` — CPU work VM *j* lost to live migrations (estimated as 10%
  of its CPU utilisation during each migration);
* ``C_r_j`` — total CPU work VM *j* requested over its lifetime.

The bookkeeping feeding these is four columns of the data centre's
store (``pm_active_seconds`` / ``pm_saturated_seconds``,
``vm_cpu_requested`` / ``vm_cpu_degraded``).

:func:`slavo` / :func:`slalm` walk per-machine records — ``dc.pms`` /
``dc.vms`` build them — and are the definition;
:func:`datacenter_slavo` / :func:`datacenter_slalm` give the same floats
for a whole :class:`~repro.datacenter.cluster.DataCenter` by reading the
store's columns directly (what the runner reports).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.datacenter.cluster import DataCenter
from repro.datacenter.pm import PhysicalMachine
from repro.datacenter.vm import VirtualMachine

__all__ = ["slavo", "slalm", "slav", "datacenter_slavo", "datacenter_slalm"]


def slavo(pms: Iterable[PhysicalMachine]) -> float:
    """SLA Violation time per active host (fraction in [0, 1]).

    PMs that were never active contribute 0 (they can't have violated).
    """
    ratios = []
    for pm in pms:
        if pm.active_seconds > 0.0:
            ratios.append(pm.saturated_seconds / pm.active_seconds)
        else:
            ratios.append(0.0)
    if not ratios:
        raise ValueError("slavo of an empty PM set")
    return float(sum(ratios) / len(ratios))


def slalm(vms: Iterable[VirtualMachine]) -> float:
    """Performance degradation due to live migration (fraction).

    VMs that requested no CPU contribute 0.
    """
    ratios = []
    for vm in vms:
        if vm.cpu_requested_mips_s > 0.0:
            ratios.append(vm.cpu_degraded_mips_s / vm.cpu_requested_mips_s)
        else:
            ratios.append(0.0)
    if not ratios:
        raise ValueError("slalm of an empty VM set")
    return float(sum(ratios) / len(ratios))


def slav(pms: Iterable[PhysicalMachine], vms: Iterable[VirtualMachine]) -> float:
    """The combined SLA violation metric: SLAVO x SLALM."""
    return slavo(pms) * slalm(vms)


def _mean_ratio(num: np.ndarray, den: np.ndarray) -> float:
    """Mean of ``num / den`` with 0 where ``den`` is 0 — bit-equal to the
    per-object loops above: the same IEEE division per element, then the
    same builtin ``sum`` over the same Python floats in the same order."""
    ratios = np.zeros(den.shape, dtype=np.float64)
    np.divide(num, den, out=ratios, where=den > 0.0)
    return float(sum(ratios.tolist()) / ratios.size)


def datacenter_slavo(dc: DataCenter) -> float:
    """:func:`slavo` over every PM of ``dc``."""
    store = dc.store
    return _mean_ratio(store.pm_saturated_seconds, store.pm_active_seconds)


def datacenter_slalm(dc: DataCenter) -> float:
    """:func:`slalm` over every VM of ``dc``."""
    store = dc.store
    return _mean_ratio(store.vm_cpu_degraded, store.vm_cpu_requested)
