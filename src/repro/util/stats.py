"""Summary helpers: the (median, 10th, 90th percentile) summaries the
paper reports."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "PercentileSummary",
    "percentile_summary",
]


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
