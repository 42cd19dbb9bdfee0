"""Protocol interface for the cycle-driven engine.

PeerSim's cycle-driven protocols implement a single ``nextCycle`` hook
invoked once per node per round; request/reply interactions with a peer
happen synchronously inside that hook (the peer's *passive thread*).
We mirror that with :meth:`Protocol.execute_round` for the active thread
and ordinary method calls (or :class:`~repro.simulator.network.Network`
messages, when loss/latency matter) for the passive side.  It is the
only hook: work a protocol does once per round happens at its first
call of that round.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulator.engine import Simulation
    from repro.simulator.node import Node

__all__ = ["Protocol"]


class Protocol(abc.ABC):
    """Base class for per-node round-based protocols.

    One instance is attached to one node; per-node state lives on the
    instance.  Implementations must not keep references to the whole node
    population except through ``sim`` (which models what a real
    distributed node could learn through its overlay).
    """

    @abc.abstractmethod
    def execute_round(self, node: "Node", sim: "Simulation") -> None:
        """Run this node's active thread for the current round."""
