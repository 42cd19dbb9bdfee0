"""Trace source interface and the array-backed implementation.

A trace answers one question per round: "what fraction of its nominal
spec does each VM demand, per resource, right now?"  Everything else —
generation, file parsing, calibration — happens up front, so the
per-round hot path is a single NumPy slice.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.datacenter.resources import N_RESOURCES

__all__ = ["TraceSource", "ArrayTrace"]


class TraceSource(abc.ABC):
    """Per-VM, per-round demand fractions."""

    @property
    @abc.abstractmethod
    def n_vms(self) -> int:
        """Number of VM demand series available."""

    @property
    @abc.abstractmethod
    def n_rounds(self) -> int:
        """Number of rounds of data before wrap-around."""

    @abc.abstractmethod
    def demands_at(self, round_index: int) -> np.ndarray:
        """Demand fractions at a round: shape ``(n_vms, N_RESOURCES)``.

        Implementations wrap modulo ``n_rounds`` so that long runs (e.g.
        the paper's 700 learning pre-rounds + 720 evaluation rounds) can
        replay a shorter dataset.
        """


class ArrayTrace(TraceSource):
    """A trace backed by one dense array, stored round-major.

    The canonical implementation — generators and loaders all reduce to
    this.  Producers hand over ``(n_vms, n_rounds, N_RESOURCES)``; memory
    is ``(n_rounds, n_vms, N_RESOURCES)`` so a round is one contiguous
    slab.  A VM-major array is converted once, a view that is already
    round-major underneath (the builder's) is adopted as is.  The array
    is validated once and then frozen; ``demands_at`` and ``data`` return
    read-only views.
    """

    def __init__(self, data: np.ndarray) -> None:
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[2] != N_RESOURCES:
            raise ValueError(
                f"trace array must have shape (n_vms, n_rounds, {N_RESOURCES}), "
                f"got {arr.shape}"
            )
        if arr.shape[0] == 0 or arr.shape[1] == 0:
            raise ValueError(f"trace array must be non-empty, got shape {arr.shape}")
        rounds = np.ascontiguousarray(arr.transpose(1, 0, 2))
        # Two reductions allocate nothing, and a NaN propagates through both;
        # only a trace that fails pays for the masks that name the culprits.
        if not (rounds.min() >= 0.0 and rounds.max() <= 1.0):
            bad = arr[(arr < 0.0) | (arr > 1.0)]
            if bad.size:
                raise ValueError(
                    f"trace fractions must be within [0, 1]; found values like {bad[:3]}"
                )
            raise ValueError("trace contains non-finite values")
        rounds.flags.writeable = False
        self._rounds = rounds

    @property
    def n_vms(self) -> int:
        return self._rounds.shape[1]

    @property
    def n_rounds(self) -> int:
        return self._rounds.shape[0]

    @property
    def data(self) -> np.ndarray:
        """The ``(n_vms, n_rounds, N_RESOURCES)`` view of the backing array
        (zero-copy, read-only)."""
        return self._rounds.transpose(1, 0, 2)

    def demands_at(self, round_index: int) -> np.ndarray:
        if round_index < 0:
            raise ValueError(f"round_index must be >= 0, got {round_index}")
        return self._rounds[round_index % self.n_rounds]

    def subset(self, n_vms: int) -> "ArrayTrace":
        """A trace over the first ``n_vms`` series (shares memory)."""
        if not 1 <= n_vms <= self.n_vms:
            raise ValueError(f"n_vms must be in [1, {self.n_vms}], got {n_vms}")
        out = ArrayTrace.__new__(ArrayTrace)
        out._rounds = self._rounds[:, :n_vms]
        return out

    def __repr__(self) -> str:
        return f"ArrayTrace(n_vms={self.n_vms}, n_rounds={self.n_rounds})"
