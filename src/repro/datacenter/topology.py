"""Rack/switch topology — the paper's second future-work extension.

Section VI: "we plan to extend the algorithm to be aware of the network
topology such that it will switch off network switches, an important
factor of energy consumption in cloud data centers."

This module models the minimal topology behind the idea:
PMs are grouped into racks, each rack hangs off one top-of-rack (ToR)
switch, and a ToR switch can be powered down iff every PM in its rack is
asleep.  Consolidation that *concentrates* the surviving load into few
racks therefore saves switch energy on top of server energy.

The gossip integration is :class:`RackBiasedSampler`: a decorator around
any :class:`~repro.overlay.sampler.PeerSampler` that prefers same-rack
peers with a configurable probability.  Same-rack exchanges move VMs
within a rack, which (a) empties racks as units and (b) keeps migration
traffic off the aggregation layer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.overlay.sampler import PeerSampler
from repro.util.validation import check_probability

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulator.engine import Simulation
    from repro.simulator.node import Node

__all__ = ["RackTopology", "RackBiasedSampler"]


class RackTopology:
    """PMs partitioned into equal racks, one ToR switch per rack.

    Parameters
    ----------
    n_pms:
        Total PM count.
    rack_size:
        PMs per rack (the last rack may be smaller).
    """

    def __init__(self, n_pms: int, rack_size: int = 16) -> None:
        if n_pms <= 0:
            raise ValueError(f"n_pms must be > 0, got {n_pms}")
        if rack_size <= 0:
            raise ValueError(f"rack_size must be > 0, got {rack_size}")
        self.n_pms = int(n_pms)
        self.rack_size = int(rack_size)
        self._rack_of: Dict[int, int] = {
            pm_id: pm_id // rack_size for pm_id in range(n_pms)
        }
        self.n_racks = (n_pms + rack_size - 1) // rack_size
        self._members: List[List[int]] = [[] for _ in range(self.n_racks)]
        for pm_id, rack in self._rack_of.items():
            self._members[rack].append(pm_id)

    def rack_of(self, pm_id: int) -> int:
        try:
            return self._rack_of[pm_id]
        except KeyError:
            raise KeyError(f"no PM {pm_id} in topology") from None

    def members(self, rack: int) -> List[int]:
        if not 0 <= rack < self.n_racks:
            raise ValueError(f"rack must be in [0, {self.n_racks}), got {rack}")
        return list(self._members[rack])

    def same_rack(self, a: int, b: int) -> bool:
        return self.rack_of(a) == self.rack_of(b)


class RackBiasedSampler(PeerSampler):
    """Peer sampling with locality preference.

    With probability ``rack_bias`` the selection is restricted to live
    peers *in the caller's own rack* (drawn from the underlying sampler's
    neighbourhood when possible, else from the rack directly — a PM
    always knows its rack mates); otherwise the base sampler's random
    peer is used unchanged.  ``rack_bias = 0`` degenerates to the base
    sampler, keeping GLAP's behaviour identical.
    """

    def __init__(
        self,
        base: PeerSampler,
        topology: RackTopology,
        rack_bias: float = 0.7,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.base = base
        self.topology = topology
        self.rack_bias = check_probability(rack_bias, "rack_bias")
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def select_peer(self, node: "Node", sim: "Simulation") -> Optional[int]:
        if self.rack_bias > 0.0 and self._rng.random() < self.rack_bias:
            peer = self._same_rack_peer(node, sim)
            if peer is not None:
                return peer
            # Rack exhausted (everyone else asleep): fall through to the
            # global overlay so consolidation can still finish the rack.
        return self.base.select_peer(node, sim)

    def _same_rack_peer(self, node: "Node", sim: "Simulation") -> Optional[int]:
        rack = self.topology.rack_of(node.node_id)
        candidates = [
            pm_id
            for pm_id in self.topology.members(rack)
            if pm_id != node.node_id and sim.node(pm_id).is_up
        ]
        if not candidates:
            return None
        return int(candidates[int(self._rng.integers(len(candidates)))])

    def neighbors(self, node: "Node") -> List[int]:
        return self.base.neighbors(node)
