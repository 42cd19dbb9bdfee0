"""The uniform policy interface the experiment runner drives.

The runner calls ``attach`` once at set-up, ``step`` after the gossip
round of every round, warm-up and evaluation alike, and ``end_warmup``
between the two phases; the exact order is DESIGN.md §5a "Run path"
(:mod:`repro.experiments.runner`).

Gossip policies register per-node protocols in ``attach`` and use the
warmup purely for monitoring history (GLAP additionally learns and
aggregates Q-values during warmup); consolidation must start only after
``end_warmup``.  Centralised policies (PABFD) do their per-round work in
``step``.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Dict

if TYPE_CHECKING:  # pragma: no cover
    from repro.datacenter.cluster import DataCenter
    from repro.simulator.engine import Simulation
    from repro.util.rng import RngStreams

__all__ = ["ConsolidationPolicy", "switch_off"]


def switch_off(dc: "DataCenter", sim: "Simulation", pm_id: int) -> None:
    """Switch PM ``pm_id`` off: mark it asleep in the store, sleep its
    node if that is up, and emit ``pm_sleep``.  Callers keep their own
    guard and ``switch_offs`` count."""
    dc.store.pm_asleep[pm_id] = True
    node = sim.node(pm_id)
    if node.is_up:
        node.sleep()
    if sim.tracer.enabled:
        sim.tracer.emit("pm_sleep", sim.round_index, pm_id)


class ConsolidationPolicy(abc.ABC):
    """A named consolidation strategy attachable to a simulation."""

    #: Short display name used in reports ("GLAP", "GRMP", ...).
    name: str = "policy"

    @abc.abstractmethod
    def attach(
        self,
        dc: "DataCenter",
        sim: "Simulation",
        streams: "RngStreams",
        warmup_rounds: int,
    ) -> None:
        """Register protocols / controllers on a fresh simulation."""

    def end_warmup(self, dc: "DataCenter", sim: "Simulation") -> None:
        """Switch from monitoring/learning to active consolidation."""

    def step(self, dc: "DataCenter", sim: "Simulation") -> None:
        """Centralised per-round hook, after the gossip round."""

    # -- checkpointing -------------------------------------------------------
    #
    # The resume path rebuilds a run deterministically (attach() on a
    # fresh simulation), then overwrites every piece of *mutable* policy
    # state from the checkpoint.  ``state_dict`` therefore only needs to
    # cover what attach() cannot reproduce: learned models, protocol
    # counters, phase/enablement flags, monitoring histories, overlay
    # views.  RNG stream state is handled by ``RngStreams`` directly.

    def state_dict(self) -> Dict[str, Any]:
        """JSON-safe mutable policy state; ``{}`` for stateless policies."""
        return {}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore state captured by :meth:`state_dict` (after attach)."""
        if state:
            raise ValueError(
                f"{self.name} carries no checkpointable state, got keys "
                f"{sorted(state)}"
            )
