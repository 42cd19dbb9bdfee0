"""State/action calibration (paper section IV-A).

Both states (PM load) and actions (VM load) are tuples of per-resource
utilisation *levels* over the paper's 9-step scale::

    Low      x <= 0.2
    Medium   0.2 < x <= 0.4
    High     0.4 < x <= 0.5
    xHigh    0.5 < x <= 0.6
    2xHigh   0.6 < x <= 0.7
    3xHigh   0.7 < x <= 0.8
    4xHigh   0.8 < x <= 0.9
    5xHigh   0.9 < x <  1.0
    Overload x >= 1.0

With 2 resources (CPU, memory) there are ``9**2 = 81`` states and 81
actions.  States and actions are encoded as integers in ``[0, 81)`` so
Q-maps can key on plain ints.

Normalisation convention (see DESIGN.md): a PM's level is computed from
its aggregate VM demand as a fraction of *PM capacity*; a VM's
action level is computed from its demand as a fraction of *its own
spec*, so the action space spans all 9 levels even though one micro VM
is small relative to a host.
"""

from __future__ import annotations

import enum
from typing import Tuple

import numpy as np

from repro.datacenter.resources import N_RESOURCES

__all__ = [
    "UtilizationLevel",
    "N_LEVELS",
    "N_STATES",
    "LEVEL_THRESHOLDS",
    "level_indices",
    "level_of",
    "levels_of",
    "encode_state",
    "decode_state",
    "state_of_utilization",
    "state_code_fast",
]


class UtilizationLevel(enum.IntEnum):
    """The paper's 9 calibrated utilisation levels."""

    LOW = 0
    MEDIUM = 1
    HIGH = 2
    XHIGH = 3
    XXHIGH = 4  # "2xHigh"
    XXXHIGH = 5  # "3xHigh"
    XXXXHIGH = 6  # "4xHigh"
    XXXXXHIGH = 7  # "5xHigh"
    OVERLOAD = 8


N_LEVELS: int = len(UtilizationLevel)
N_STATES: int = N_LEVELS**N_RESOURCES

# Upper bounds of each level below OVERLOAD; level_of uses searchsorted
# over these, with x >= 1.0 mapping to OVERLOAD.
LEVEL_THRESHOLDS = np.array([0.2, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9], dtype=np.float64)


def _level_index(x: float) -> int:
    """Bucket index of one utilisation fraction (no validation).

    Chained comparisons on a Python float — this sits on the learning
    hot path (hundreds of thousands of calls per simulated round), where
    a scalar ``np.searchsorted`` is ~10x slower.
    """
    if x >= 1.0:
        return 8  # OVERLOAD
    if x <= 0.4:
        return 0 if x <= 0.2 else 1  # LOW / MEDIUM
    if x <= 0.7:
        if x <= 0.5:
            return 2  # HIGH
        return 3 if x <= 0.6 else 4  # XHIGH / 2xHIGH
    if x <= 0.8:
        return 5  # 3xHIGH
    return 6 if x <= 0.9 else 7  # 4xHIGH / 5xHIGH


def level_indices(u: np.ndarray) -> np.ndarray:
    """:func:`_level_index` of every element of ``u`` (any shape; finite
    values): left-open/right-closed buckets are ``searchsorted`` over
    the upper bounds, and ``x >= 1.0`` is pinned to Overload."""
    levels = LEVEL_THRESHOLDS.searchsorted(u)
    levels[u >= 1.0] = N_LEVELS - 1
    return levels


def level_of(x: float) -> UtilizationLevel:
    """Map one utilisation fraction to its level.

    Exactly the paper's bucket boundaries: ``x <= 0.2`` is Low,
    left-open/right-closed buckets up to ``0.9 < x < 1`` (5xHigh), and
    ``x >= 1.0`` is Overload (demand at or beyond capacity).
    """
    if x < 0.0 or x != x or x == float("inf"):
        raise ValueError(f"utilisation must be finite and >= 0, got {x!r}")
    return UtilizationLevel(_level_index(x))


def levels_of(utilization: np.ndarray) -> Tuple[UtilizationLevel, ...]:
    """Per-resource levels for a utilisation vector."""
    u = np.asarray(utilization, dtype=np.float64)
    if u.shape != (N_RESOURCES,):
        raise ValueError(f"expected shape ({N_RESOURCES},), got {u.shape}")
    return tuple(level_of(float(x)) for x in u)


def encode_state(levels: Tuple[UtilizationLevel, ...]) -> int:
    """Pack per-resource levels into one int in ``[0, N_STATES)``."""
    if len(levels) != N_RESOURCES:
        raise ValueError(f"expected {N_RESOURCES} levels, got {len(levels)}")
    code = 0
    for lvl in levels:
        iv = int(lvl)
        if not 0 <= iv < N_LEVELS:
            raise ValueError(f"invalid level {lvl!r}")
        code = code * N_LEVELS + iv
    return code


def decode_state(code: int) -> Tuple[UtilizationLevel, ...]:
    """Inverse of :func:`encode_state`."""
    if not 0 <= code < N_STATES:
        raise ValueError(f"state code must be in [0, {N_STATES}), got {code}")
    levels = []
    for _ in range(N_RESOURCES):
        levels.append(UtilizationLevel(code % N_LEVELS))
        code //= N_LEVELS
    return tuple(reversed(levels))


def state_of_utilization(utilization: np.ndarray) -> int:
    """Encode a utilisation vector directly to a state/action code."""
    return encode_state(levels_of(utilization))


def state_code_fast(u0: float, u1: float) -> int:
    """Hot-path state encoding for the 2-resource build: no enum objects,
    no array allocation.  Callers must pass finite values >= 0."""
    return _level_index(u0) * N_LEVELS + _level_index(u1)
