"""Simulation nodes.

A :class:`Node` is a generic participant in the round-based simulation.
In a data-centre run node ``i`` is PM ``i``: protocols read the PM's
state off the store by ``node.node_id``.  Protocol instances (Cyclon,
learning, consolidation, ...) are registered per node under string
keys, mirroring PeerSim's "protocol stack" design where each node
carries its own instance of every configured protocol.
"""

from __future__ import annotations

import enum
from typing import Any, Dict

__all__ = ["NodeState", "Node"]


class NodeState(enum.Enum):
    """Lifecycle of a node.

    ``UP``        — participates in gossip rounds.
    ``SLEEPING``  — switched off to save energy (a consolidated PM);
                    it no longer initiates or answers gossip, but can be
                    woken by the simulation (e.g. on data-centre pressure).
    ``FAILED``    — crashed; used by failure-injection tests.  Unlike a
                    sleeping node it cannot be woken.
    """

    UP = "up"
    SLEEPING = "sleeping"
    FAILED = "failed"


class Node:
    """A network participant with a protocol stack."""

    __slots__ = ("node_id", "state", "_protocols")

    def __init__(self, node_id: int) -> None:
        if node_id < 0:
            raise ValueError(f"node_id must be >= 0, got {node_id}")
        self.node_id = int(node_id)
        self.state = NodeState.UP
        self._protocols: Dict[str, Any] = {}

    # -- protocol stack ---------------------------------------------------

    def register(self, name: str, protocol: Any) -> None:
        """Attach a protocol instance under ``name``; names are unique."""
        if name in self._protocols:
            raise ValueError(f"protocol {name!r} already registered on node {self.node_id}")
        self._protocols[name] = protocol

    def protocol(self, name: str) -> Any:
        """Look up a registered protocol; raises ``KeyError`` if missing."""
        try:
            return self._protocols[name]
        except KeyError:
            raise KeyError(
                f"node {self.node_id} has no protocol {name!r}; "
                f"registered: {sorted(self._protocols)}"
            ) from None

    @property
    def protocols(self) -> Dict[str, Any]:
        """Read-only view of the protocol stack (do not mutate)."""
        return self._protocols

    # -- lifecycle ---------------------------------------------------------

    @property
    def is_up(self) -> bool:
        return self.state is NodeState.UP

    @property
    def is_sleeping(self) -> bool:
        return self.state is NodeState.SLEEPING

    @property
    def is_failed(self) -> bool:
        return self.state is NodeState.FAILED

    def sleep(self) -> None:
        """Switch the node off (energy saving).  Failed nodes stay failed."""
        if self.state is NodeState.FAILED:
            raise RuntimeError(f"cannot sleep failed node {self.node_id}")
        self.state = NodeState.SLEEPING

    def wake(self) -> None:
        """Bring a sleeping node back up."""
        if self.state is NodeState.FAILED:
            raise RuntimeError(f"cannot wake failed node {self.node_id}")
        self.state = NodeState.UP

    def fail(self) -> None:
        """Crash the node (failure injection).  ``wake``/``sleep`` refuse
        failed nodes; only an explicit :meth:`recover` restarts one."""
        self.state = NodeState.FAILED

    def recover(self) -> None:
        """Restart a crashed node (crash-recovery churn).

        Deliberately distinct from :meth:`wake` so ordinary policy code
        can never resurrect a crashed PM by accident — only the fault
        machinery models repairs.
        """
        if self.state is not NodeState.FAILED:
            raise RuntimeError(
                f"cannot recover node {self.node_id}: not failed ({self.state.value})"
            )
        self.state = NodeState.UP

    def __repr__(self) -> str:
        return f"Node(id={self.node_id}, state={self.state.value})"

    def __hash__(self) -> int:
        return hash(self.node_id)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Node) and other.node_id == self.node_id
