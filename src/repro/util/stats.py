"""Summary helpers: Q-table cosine similarity (Figure 5) and the
(median, 10th, 90th percentile) summaries the paper reports."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "cosine_similarity",
    "PercentileSummary",
    "percentile_summary",
]


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity between two vectors, in [-1, 1].

    Used to measure Q-table agreement between PMs (Figure 5).  Two empty /
    all-zero vectors are defined as perfectly similar (1.0) because two PMs
    with no learned values trivially agree; a zero vector against a
    non-zero one yields 0.0.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 and nb == 0.0:
        return 1.0
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


@dataclass(frozen=True)
class PercentileSummary:
    """Median with 10th/90th percentiles — the paper's error-bar convention."""

    median: float
    p10: float
    p90: float
    mean: float
    count: int

    def __str__(self) -> str:
        return f"{self.median:.4g} [{self.p10:.4g}, {self.p90:.4g}]"


def percentile_summary(samples: Sequence[float]) -> PercentileSummary:
    """Summarise samples as median / p10 / p90 (paper Figures 7-8)."""
    arr = np.asarray(list(samples), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot summarise an empty sample set")
    med, p10, p90 = np.percentile(arr, [50.0, 10.0, 90.0])
    return PercentileSummary(
        median=float(med),
        p10=float(p10),
        p90=float(p90),
        mean=float(arr.mean()),
        count=int(arr.size),
    )
