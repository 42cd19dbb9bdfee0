"""The best-fit scan ``bfd_pack`` shipped before PR 14, kept as the
tests-only oracle: every item scans every open bin.  ``bfd_pack`` must
return the same bins with the same order inside each bin.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.datacenter.resources import N_RESOURCES


def reference_bfd_pack(demands: np.ndarray, capacity: np.ndarray) -> List[List[int]]:
    demands = np.asarray(demands, dtype=np.float64)
    capacity = np.asarray(capacity, dtype=np.float64)
    sizes = (demands / capacity).sum(axis=1)
    order = np.argsort(-sizes, kind="stable")

    n = demands.shape[0]
    res = [np.empty(n, dtype=np.float64) for _ in range(N_RESOURCES)]
    fit_buf = np.empty(n, dtype=bool)
    tmp_buf = np.empty(n, dtype=bool)
    cap = [float(c) for c in capacity]
    bins: List[List[int]] = []
    n_open = 0
    for idx in order:
        item = [float(d) for d in demands[idx]]
        best_bin = -1
        if n_open:
            fits = np.greater_equal(res[0][:n_open], item[0], out=fit_buf[:n_open])
            for r in range(1, N_RESOURCES):
                fits &= np.greater_equal(res[r][:n_open], item[r], out=tmp_buf[:n_open])
            cand = np.flatnonzero(fits)
            if cand.size:
                slack = (res[0][cand] - item[0]) / cap[0]
                for r in range(1, N_RESOURCES):
                    slack += (res[r][cand] - item[r]) / cap[r]
                best_bin = int(cand[np.argmin(slack)])
        if best_bin < 0:
            bins.append([int(idx)])
            for r in range(N_RESOURCES):
                res[r][n_open] = cap[r] - item[r]
            n_open += 1
        else:
            bins[best_bin].append(int(idx))
            for r in range(N_RESOURCES):
                res[r][best_bin] -= item[r]
    return bins
