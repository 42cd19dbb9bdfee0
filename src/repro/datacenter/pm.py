"""The SLAVO record of one physical machine.

A PM's state lives in the :class:`~repro.datacenter.columnar.ColumnarStore`
and is read there by id.  :class:`PhysicalMachine` is the read-only
``(store, pm_id)`` record :func:`repro.metrics.sla.slavo` walks:
``DataCenter.pms`` builds one per PM each time it is read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.datacenter.columnar import ColumnarStore

__all__ = ["PhysicalMachine"]


class PhysicalMachine:
    """Row ``pm_id`` of a store's SLAVO columns: ``T_a`` and ``T_s``."""

    __slots__ = ("store", "pm_id")

    def __init__(self, store: "ColumnarStore", pm_id: int) -> None:
        self.store = store
        self.pm_id = pm_id

    @property
    def active_seconds(self) -> float:
        return float(self.store.pm_active_seconds[self.pm_id])

    @property
    def saturated_seconds(self) -> float:
        return float(self.store.pm_saturated_seconds[self.pm_id])

    def __repr__(self) -> str:
        return f"PhysicalMachine(id={self.pm_id})"
