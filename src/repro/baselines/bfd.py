"""Offline Best-Fit-Decreasing packing — the Figure 6 baseline.

The paper: "We calculated BFD using the VMs resource utilization of the
last round to determine a baseline packing without producing any SLA
violation."  This is a pure function of a demand snapshot: pack the VMs'
current absolute demands into as few PMs as possible such that no PM
exceeds capacity in any resource.

Two-resource best fit: VMs sorted by descending demand magnitude; each
VM goes to the open PM with the least *remaining* normalised slack that
still fits (the classic best-fit rule generalised to vectors via the sum
of per-resource residuals); a new PM opens when none fits.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.datacenter.cluster import DataCenter
from repro.datacenter.resources import N_RESOURCES

__all__ = ["bfd_pack", "bfd_baseline_active_pms"]


def bfd_pack(demands: np.ndarray, capacity: np.ndarray) -> List[List[int]]:
    """Pack item demand vectors into vector-capacity bins.

    Parameters
    ----------
    demands:
        ``(n_items, N_RESOURCES)`` absolute demands.
    capacity:
        Per-bin capacity vector.

    Returns
    -------
    A list of bins, each a list of item indices.  An item whose demand
    exceeds a whole empty bin in some resource gets a bin of its own
    (it violates capacity alone; nothing better exists).
    """
    demands = np.asarray(demands, dtype=np.float64)
    capacity = np.asarray(capacity, dtype=np.float64)
    if demands.ndim != 2 or demands.shape[1] != N_RESOURCES:
        raise ValueError(f"demands must be (n, {N_RESOURCES}), got {demands.shape}")
    if capacity.shape != (N_RESOURCES,):
        raise ValueError(f"capacity must be ({N_RESOURCES},), got {capacity.shape}")
    if np.any(demands < 0):
        raise ValueError("demands must be >= 0")

    # Decreasing order of total normalised size (the "D" in BFD).
    sizes = (demands / capacity).sum(axis=1)
    order = np.argsort(-sizes, kind="stable").tolist()

    # Selection rule (pinned against tests/baselines/_reference_bfd.py):
    # a bin fits iff the item is <= its residual in every resource; among
    # the fitting bins the least slack (res0-i0)/c0 + (res1-i1)/c1 wins,
    # the lowest index on ties.  Open-bin residuals live in pre-sized
    # per-resource columns so a scan is a handful of whole-array ops on
    # the fitting subset, whose ascending order makes ``argmin`` return
    # the lowest-indexed minimum.  Every item scans: a shortcut that
    # skips the scan for items no older bin can hold was tried and makes
    # the cost swing 2x with the demand set (DESIGN.md §5g).
    assert N_RESOURCES == 2, "the scan below is written out for (CPU, memory)"
    d0, d1 = demands[:, 0].tolist(), demands[:, 1].tolist()
    c0, c1 = capacity.tolist()
    res0 = np.empty(len(order), dtype=np.float64)
    res1 = np.empty(len(order), dtype=np.float64)
    bins: List[List[int]] = []
    n_open = 0
    for idx in order:
        i0, i1 = d0[idx], d1[idx]
        r0, r1 = res0[:n_open], res1[:n_open]
        fits = r0 >= i0
        fits &= r1 >= i1
        cand = fits.nonzero()[0]
        if cand.size:
            slack = (r0[cand] - i0) / c0
            slack += (r1[cand] - i1) / c1
            best = cand[slack.argmin()]
            bins[best].append(idx)
            res0[best] -= i0
            res1[best] -= i1
        else:
            bins.append([idx])
            res0[n_open], res1[n_open] = c0 - i0, c1 - i1
            n_open += 1
    return bins


def bfd_baseline_active_pms(dc: DataCenter) -> int:
    """Minimum active PMs per BFD on *current* VM demands (Figure 6)."""
    if dc.n_vms == 0:
        return 0
    capacity = dc.pms[0].spec.capacity_vector()
    return len(bfd_pack(dc.vm_demand_matrix(), capacity))
