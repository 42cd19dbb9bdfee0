"""The SLALM record of one virtual machine.

A VM's state lives in the :class:`~repro.datacenter.columnar.ColumnarStore`
and is read there by id.  :class:`VirtualMachine` is the read-only
``(store, vm_id)`` record :func:`repro.metrics.sla.slalm` walks:
``DataCenter.vms`` builds one per VM each time it is read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.datacenter.columnar import ColumnarStore

__all__ = ["VirtualMachine"]


class VirtualMachine:
    """Row ``vm_id`` of a store's SLALM columns: ``C_r`` and ``C_d``."""

    __slots__ = ("store", "vm_id")

    def __init__(self, store: "ColumnarStore", vm_id: int) -> None:
        self.store = store
        self.vm_id = vm_id

    @property
    def cpu_requested_mips_s(self) -> float:
        return float(self.store.vm_cpu_requested[self.vm_id])

    @property
    def cpu_degraded_mips_s(self) -> float:
        return float(self.store.vm_cpu_degraded[self.vm_id])

    def __repr__(self) -> str:
        return f"VirtualMachine(id={self.vm_id})"
