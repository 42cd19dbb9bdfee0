"""Convergence instrumentation (paper section IV-C and Figure 5).

The paper measures, per gossip cycle, the cosine similarity of PMs'
Q-value maps to show that (a) local learning alone leaves PMs ~45%
similar, and (b) the aggregation phase drives similarity to ~1 rapidly.

Exact all-pairs similarity is O(N^2) per cycle; for large N we average
over a random sample of pairs, which estimates the same population mean.
Also includes the empirical check of Theorem 1: repeated pairwise
averaging of independent values concentrates around the population mean
(the gossip-averaging CLT).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.qlearning import QLearningModel

__all__ = ["qvalue_matrix", "mean_pairwise_cosine"]


def _union_codes(packed: List[Tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Sorted union of the tables' key codes.  Converged tables share
    one key array (``packed`` hands out views of it, hence ``.base``),
    so distinct arrays are few: dedupe by identity before sorting."""
    distinct = {id(keys.base): keys for keys, _ in packed}
    return np.unique(np.concatenate(list(distinct.values())))


def qvalue_matrix(models: List[QLearningModel]) -> np.ndarray:
    """Dense (n_models, n_keys) matrix over the union key set.

    Columns are the ``q_in`` keys, then the ``q_out`` keys, each sorted
    by (state, action).  Unknown entries are 0 — exactly how a PM
    lacking a pair would answer.
    """
    if not models:
        raise ValueError("need at least one model")
    ins = [m.q_in.packed() for m in models]
    outs = [m.q_out.packed() for m in models]
    in_codes, out_codes = _union_codes(ins), _union_codes(outs)
    mat = np.zeros((len(models), in_codes.size + out_codes.size), dtype=np.float64)
    # Table codes are a sorted subset of the union, so searchsorted is
    # each entry's column: one scatter per table, no per-entry Python.
    for row, (in_keys, in_vals), (out_keys, out_vals) in zip(mat, ins, outs):
        row[in_codes.searchsorted(in_keys)] = in_vals
        row[out_codes.searchsorted(out_keys) + in_codes.size] = out_vals
    return mat


def mean_pairwise_cosine(
    models: List[QLearningModel],
    rng: Optional[np.random.Generator] = None,
    max_pairs: int = 500,
) -> float:
    """Average cosine similarity over (sampled) distinct model pairs.

    Returns 1.0 for fewer than two models (trivially identical).
    """
    n = len(models)
    if n < 2:
        return 1.0
    mat = qvalue_matrix(models)
    if mat.shape[1] == 0:
        return 1.0  # no knowledge anywhere: all identical (empty) maps
    total_pairs = n * (n - 1) // 2
    if total_pairs <= max_pairs:
        ii, jj = np.triu_indices(n, k=1)
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        raw_i = rng.integers(0, n, size=max_pairs * 2)
        raw_j = rng.integers(0, n, size=max_pairs * 2)
        keep = raw_i != raw_j
        # Canonicalise to unordered pairs and drop repeats: (i, j) and
        # (j, i) are the same cosine, and counting a pair twice would
        # bias the mean toward whatever the duplicated pair happens to
        # show.  np.unique sorts, so re-order by first draw to keep the
        # estimate a deterministic function of the rng alone.
        lo = np.minimum(raw_i, raw_j)[keep]
        hi = np.maximum(raw_i, raw_j)[keep]
        codes = lo * np.intp(n) + hi
        _, first = np.unique(codes, return_index=True)
        first.sort()
        first = first[:max_pairs]
        ii = lo[first]
        jj = hi[first]
        if ii.size == 0:  # pathological rng output; fall back to one pair
            ii, jj = np.array([0]), np.array([1])
    # All pairs at once: one row dot and two norms per pair, with the
    # zero-vector conventions of the cosine (two empty maps agree
    # perfectly; empty vs non-empty do not agree at all).
    norms = np.linalg.norm(mat, axis=1)
    ni, nj = norms[ii], norms[jj]
    dots = np.einsum("ij,ij->i", mat[ii], mat[jj])
    sims = np.empty(ii.shape[0], dtype=np.float64)
    nonzero = (ni != 0.0) & (nj != 0.0)
    sims[~nonzero] = np.where((ni == 0.0) & (nj == 0.0), 1.0, 0.0)[~nonzero]
    sims[nonzero] = np.clip(dots[nonzero] / (ni[nonzero] * nj[nonzero]), -1.0, 1.0)
    return float(np.mean(sims))
