"""VM monitor (VMM): per-VM current and running-average demand.

Section IV-B: "each VM piggybacks a tuple {c, v} in which c represents
the number of times the resource demand is monitored and v indicates the
average observed demands.  In the next profiling time, the new average
can be calculated simply by ((c*v) + d(t)) / (c+1)."

The monitor travels with the VM across migrations — the average is a
property of the VM's workload history, not of its current host.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.datacenter.resources import N_RESOURCES

if TYPE_CHECKING:  # pragma: no cover - the store constructs its views
    from repro.datacenter.columnar import ColumnarStore

__all__ = ["VmMonitor"]


class VmMonitor:
    """One VM's current demand and ``{c, v}`` running average, as a view
    of a :class:`~repro.datacenter.columnar.ColumnarStore`.

    Demands are fractions of the VM's own nominal spec, in [0, 1].

    ``current`` and ``average`` are row views into the store's demand
    matrices, which is what lets the data centre refresh every VM's
    demand in one vectorised operation per round; the sample count lives
    in the store's ``monitor_count`` column.  All updates are therefore
    performed in place — rebinding the attributes would detach the
    monitor from its backing rows.
    """

    __slots__ = ("_store", "_index", "current", "average")

    def __init__(self, store: "ColumnarStore", index: int) -> None:
        self._store = store
        self._index = index
        self.current = store.cur[index]
        self.average = store.avg[index]

    @property
    def count(self) -> int:
        return int(self._store.monitor_count[self._index])

    @count.setter
    def count(self, value: int) -> None:
        self._store.monitor_count[self._index] = value

    def observe(self, demand: np.ndarray) -> None:
        """Fold one profiling sample (length-``N_RESOURCES`` fractions) in."""
        d = np.asarray(demand, dtype=np.float64)
        if d.shape != (N_RESOURCES,):
            raise ValueError(f"demand must have shape ({N_RESOURCES},), got {d.shape}")
        if np.any(d < 0.0) or np.any(d > 1.0):
            raise ValueError(f"demand fractions must be in [0, 1], got {d}")
        # v' = (c*v + d) / (c + 1)   — the paper's piggyback update.
        count = self.count
        self.average[:] = (count * self.average + d) / (count + 1)
        self.count = count + 1
        self.current[:] = d
        # The rows were written behind the store's back.
        self._store.invalidate_planes()

    def __repr__(self) -> str:
        return (
            f"VmMonitor(current={np.round(self.current, 3)}, "
            f"average={np.round(self.average, 3)}, count={self.count})"
        )
