"""Offline Best-Fit-Decreasing packing — the Figure 6 baseline.

The paper: "We calculated BFD using the VMs resource utilization of the
last round to determine a baseline packing without producing any SLA
violation."  This is a pure function of a demand snapshot: pack the VMs'
current absolute demands into as few PMs as possible such that no PM
exceeds capacity in any resource.

Two-resource best fit: VMs sorted by descending demand magnitude; each
VM goes to the open PM with the least *remaining* normalised slack that
still fits (the classic best-fit rule generalised to vectors via the sum
of per-resource residuals); a new PM opens when none fits.  Open PMs are
indexed by residual, so an item looks only at the bins that can win, and
the items come from sorted columns a chunk at a time, so past the sort
the packing holds O(open bins) Python objects (DESIGN.md §5g).  The scan
of every open bin is the tests-only oracle
``tests/baselines/_reference_bfd.py``: same bins, same order.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from typing import List, Optional, Tuple

import numpy as np

from repro.datacenter.cluster import DataCenter
from repro.datacenter.resources import N_RESOURCES

__all__ = ["bfd_pack", "bfd_baseline_active_pms"]

#: Longest fitting suffix scored bin by bin: ~0.12 us a bin against a scan
#: of ~5 us + 0.75 ns per open bin, so they cross near 80 bins.  87-92 % of
#: the 20k-PM cell's items have <= 48 (median 1); 48 to 128 time the same.
_SHORT_SUFFIX = 48
#: Walk steps before an item gives up and scans (about half a scan).  The
#: early exit takes 1-2 steps, 99th percentile 7-63 over twelve trace seeds.
_WALK_CAP = 64
#: Items turned into Python floats (and, at the end, ints) at a time, so
#: the packing holds O(open bins) objects, not O(items).
_CHUNK = 4096


def _place(
    demands: np.ndarray, capacity: np.ndarray
) -> Tuple[np.ndarray, List[int], int, int, int]:
    """The packing, on validated input: the items in packing order, the
    bin of each in that order, the number of bins, and the two counts the
    steadiness test reads (bins examined, items that fell back to the
    whole scan).  Past the sort it holds O(open bins) Python objects."""
    # Decreasing order of total normalised size (the "D" in BFD).
    norm = demands / capacity
    sizes = norm.sum(axis=1)
    order = np.argsort(np.negative(sizes, out=sizes), kind="stable")
    # Selection rule (pinned against tests/baselines/_reference_bfd.py): a
    # bin fits iff the item is <= its residual in every resource; the least
    # slack (res0-i0)/c0 + (res1-i1)/c1 wins, the lowest index on ties.
    # ``a`` is the binding resource (larger total normalised demand), ``b``
    # the other; float ``+`` commutes, so the slack is the reference's bits.
    assert N_RESOURCES == 2, "the index below is written out for (CPU, memory)"
    a = int(norm[:, 1].sum() > norm[:, 0].sum())
    del norm, sizes
    # The items in packing order, as Python floats one chunk at a time.
    sorted_a, sorted_b = demands[order, a], demands[order, 1 - a]
    items = chain.from_iterable(
        zip(sorted_a[lo : lo + _CHUNK].tolist(), sorted_b[lo : lo + _CHUNK].tolist())
        for lo in range(0, len(order), _CHUNK)
    )
    ca, cb = float(capacity[a]), float(capacity[1 - a])
    # Residuals per bin twice: floats for the per-bin paths, columns (grown
    # by doubling) for the scan.
    ra: List[float] = []
    rb: List[float] = []
    col_a = np.empty(256, dtype=np.float64)
    col_b = np.empty(256, dtype=np.float64)
    # The index: bins by ascending residual in ``a`` (``key_a[k]`` is bin
    # ``bin_a[k]``'s), so the bins that fit an item in ``a`` are the suffix
    # from one bisect; ``key_b`` / ``bin_b`` are the same over ``b``, built
    # on first use.  Equal keys sit in any order: ties break on bin number.
    key_a: List[float] = []
    bin_a: List[int] = []
    key_b: Optional[List[float]] = None
    bin_b: List[int] = []
    # Each item's bin, in packing order (the index's own int objects).
    placed: List[int] = []
    examined = scanned = 0
    inf = float("inf")
    for ia, ib in items:
        n_open = len(ra)
        best, slack, at = -1, inf, -1
        start = bisect_left(key_a, ia)
        n_fit = n_open - start
        if n_fit <= _SHORT_SUFFIX:
            # Few bins fit in ``a`` (none, for most big items): score them.
            examined += n_fit
            scan = False
            for k in range(start, n_open):
                j = bin_a[k]
                if rb[j] >= ib:
                    s = (key_a[k] - ia) / ca + (rb[j] - ib) / cb
                    if s < slack or (s == slack and j < best):
                        best, slack, at = j, s, k
        elif 2 * n_fit < n_open:
            scan = True
        else:
            # Most bins fit in ``a`` (an idle VM): walk the bins that fit
            # in ``b`` by rising residual.  The ``b`` term only grows along
            # the walk and fl(x + y) >= y for x >= 0, so once it alone
            # exceeds the best slack no later bin can win or tie.
            if key_b is None:
                bin_b = sorted(range(n_open), key=rb.__getitem__)
                key_b = [rb[j] for j in bin_b]
            start = bisect_left(key_b, ib)
            stop = min(n_open, start + _WALK_CAP)
            for k in range(start, stop):
                tb = (key_b[k] - ib) / cb
                if tb > slack:
                    stop = k
                    break
                j = bin_b[k]
                if ra[j] >= ia:
                    s = (ra[j] - ia) / ca + tb
                    if s < slack or (s == slack and j < best):
                        best, slack = j, s
            examined += stop - start
            scan = stop == start + _WALK_CAP
        if scan:
            # Neither index discriminates: every open bin, whole-array;
            # ``cand`` ascends, so ``argmin`` is the lowest-indexed minimum.
            examined += n_open
            scanned += 1
            fits = col_a[:n_open] >= ia
            fits &= col_b[:n_open] >= ib
            cand = fits.nonzero()[0]
            best = -1
            if cand.size:
                s_all = (col_a[cand] - ia) / ca
                s_all += (col_b[cand] - ib) / cb
                best = int(cand[s_all.argmin()])
        if best < 0:
            best = n_open
            if n_open == col_a.size:
                col_a = np.concatenate((col_a, np.empty_like(col_a)))
                col_b = np.concatenate((col_b, np.empty_like(col_b)))
            ra.append(ca)
            rb.append(cb)
        else:
            if at < 0:
                at = bin_a.index(best, bisect_left(key_a, ra[best]))
                best = bin_a[at]  # the index's own int, so ``placed`` makes none
            del key_a[at], bin_a[at]
            if key_b is not None:
                at = bin_b.index(best, bisect_left(key_b, rb[best]))
                del key_b[at], bin_b[at]
        placed.append(best)
        ra[best] = col_a[best] = r = ra[best] - ia
        at = bisect_left(key_a, r)
        key_a.insert(at, r)
        bin_a.insert(at, best)
        rb[best] = col_b[best] = r = rb[best] - ib
        if key_b is not None:
            at = bisect_left(key_b, r)
            key_b.insert(at, r)
            bin_b.insert(at, best)
    return order, placed, len(ra), examined, scanned


def _pack(demands: np.ndarray, capacity: np.ndarray) -> Tuple[List[List[int]], int, int]:
    """``bfd_pack`` on validated input, plus :func:`_place`'s two counts."""
    order, placed, n_bins, examined, scanned = _place(demands, capacity)
    bins: List[List[int]] = [[] for _ in range(n_bins)]
    for lo in range(0, len(order), _CHUNK):
        for idx, j in zip(order[lo : lo + _CHUNK].tolist(), placed[lo : lo + _CHUNK]):
            bins[j].append(idx)
    return bins, examined, scanned


def _validated(demands: np.ndarray, capacity: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    demands = np.asarray(demands, dtype=np.float64)
    capacity = np.asarray(capacity, dtype=np.float64)
    if demands.ndim != 2 or demands.shape[1] != N_RESOURCES:
        raise ValueError(f"demands must be (n, {N_RESOURCES}), got {demands.shape}")
    if capacity.shape != (N_RESOURCES,):
        raise ValueError(f"capacity must be ({N_RESOURCES},), got {capacity.shape}")
    # A NaN key sits anywhere in a sorted list; zero capacity, infinite slack.
    bad = ~(np.isfinite(capacity) & (capacity > 0))
    if bad.any():
        raise ValueError(f"capacity must be finite and > 0, got {capacity} at [{bad.argmax()}]")
    bad = ~(np.isfinite(demands) & (demands >= 0))
    if bad.any():
        i, r = np.argwhere(bad)[0]
        raise ValueError(f"demands must be finite and >= 0, got {demands[i, r]} at [{i}, {r}]")
    return demands, capacity


def bfd_pack(demands: np.ndarray, capacity: np.ndarray) -> List[List[int]]:
    """Pack item demand vectors into vector-capacity bins.

    Parameters
    ----------
    demands:
        ``(n_items, N_RESOURCES)`` absolute demands, finite and >= 0.
    capacity:
        Per-bin capacity vector, finite and > 0.

    Returns
    -------
    A list of bins, each a list of item indices.  An item whose demand
    exceeds a whole empty bin in some resource gets a bin of its own
    (it violates capacity alone; nothing better exists).
    """
    return _pack(*_validated(demands, capacity))[0]


def bfd_baseline_active_pms(dc: DataCenter) -> int:
    """Minimum active PMs per BFD on *current* VM demands (Figure 6).
    Bins are identical PMs: ``ValueError`` if ``store.pm_cap`` rows differ.
    Only the count is needed, so no bin lists are built."""
    if dc.n_vms == 0:
        return 0
    pm_cap = dc.store.pm_cap
    differs = np.any(pm_cap != pm_cap[0], axis=1)
    if differs.any():
        raise ValueError(f"one bin size needed: PM {int(differs.argmax())} differs from PM 0")
    return _place(*_validated(dc.vm_demand_matrix(), pm_cap[0]))[2]
