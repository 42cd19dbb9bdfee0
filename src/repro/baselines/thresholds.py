"""Robust statistical threshold estimator (Beloglazov & Buyya 2012).

PABFD's adaptive upper utilisation threshold is derived from historical
CPU utilisation with the Median Absolute Deviation (the paper's
configuration):

``T_upper = 1 - s * MAD``   (safety parameter s; B&B use s = 2.58)
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.util.validation import check_fraction, check_non_negative

__all__ = ["mad", "mad_upper_threshold"]


def mad(samples: Sequence[float]) -> float:
    """Median absolute deviation: ``median(|x - median(x)|)``."""
    arr = np.asarray(list(samples), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("mad of an empty sample set")
    med = np.median(arr)
    return float(np.median(np.abs(arr - med)))


def mad_upper_threshold(
    history: Sequence[float], safety: float = 2.58, floor: float = 0.5
) -> float:
    """Adaptive upper threshold from CPU history via MAD.

    ``1 - safety * MAD`` clamped into ``[floor, 1]``: ``floor`` guards
    against degenerate histories (huge dispersion would otherwise drive
    the threshold to 0 and declare everything overloaded).  With an
    empty/short history, returns 1.0 (no basis to restrict yet).
    """
    check_non_negative(safety, "safety")
    check_fraction(floor, "floor")
    if len(history) < 3:
        return 1.0
    return float(min(1.0, max(floor, 1.0 - safety * mad(history))))
