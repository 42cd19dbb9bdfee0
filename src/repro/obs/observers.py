"""Trace-emitting observers.

The overload lifecycle (a PM crossing into and out of overload) is a
*derived* condition, not a single decision point in the code, so it is
traced by an end-of-round observer rather than by an inline emission:
:class:`OverloadTraceObserver` diffs the set of overloaded PMs against
the previous round and emits ``overload_enter`` / ``overload_exit``
events for the changes.  Like every observer it is strictly read-only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, FrozenSet

import numpy as np

from repro.obs.tracer import Tracer
from repro.simulator.observer import Observer

if TYPE_CHECKING:  # pragma: no cover
    from repro.datacenter.cluster import DataCenter
    from repro.simulator.engine import Simulation

__all__ = ["OverloadTraceObserver"]


class OverloadTraceObserver(Observer):
    """Emits ``overload_enter``/``overload_exit`` events on state changes.

    A PM is overloaded when any resource's demand meets/exceeds capacity
    (the paper's definition); sleeping PMs are never overloaded.  The
    first observed round emits an ``overload_enter`` for every PM that
    is already overloaded, so the trace is self-contained.
    """

    def __init__(self, dc: "DataCenter", tracer: Tracer) -> None:
        self.dc = dc
        self.tracer = tracer
        self._overloaded: FrozenSet[int] = frozenset()

    def rearm(self) -> None:
        """Re-derive the overloaded set from current data-centre state.

        Used when resuming from a checkpoint: the set is recomputable, so
        it is not serialised — re-arming after state restore makes the
        first post-resume round diff against the same baseline an
        uninterrupted run would have.
        """
        self._overloaded = self._now()

    def _now(self) -> FrozenSet[int]:
        """Awake PMs for which ``PhysicalMachine.is_overloaded()`` holds,
        as one mask over the current-demand planes (same divisions, same
        comparisons)."""
        store = self.dc.store
        store.ensure_planes()
        spec = store.pm_spec
        over = np.array(store.pm_cur_cpu) / spec.cpu_mips >= 1.0
        over |= np.array(store.pm_cur_mem) / spec.mem_mb >= 1.0
        over &= ~store.pm_asleep
        return frozenset(np.flatnonzero(over).tolist())

    def observe(self, round_index: int, sim: "Simulation") -> None:
        if not self.tracer.enabled:
            return
        now = self._now()
        for pm_id in sorted(now - self._overloaded):
            self.tracer.emit("overload_enter", round_index, pm_id)
        for pm_id in sorted(self._overloaded - now):
            self.tracer.emit("overload_exit", round_index, pm_id)
        self._overloaded = now
