"""Cyclon: inexpensive membership management for unstructured overlays.

Faithful implementation of the enhanced shuffle of Voulgaris, Gavidia &
van Steen (JNSM 2005), the membership substrate named in the paper's
architecture (Figure 2).  Per round, each node:

1. ages its view,
2. picks its *oldest* neighbour Q,
3. sends Q a subset of ``shuffle_len`` descriptors, including a fresh
   descriptor of itself (age 0) and excluding Q,
4. receives a subset of Q's view in return,
5. merges, preferring empty slots then the slots of what it sent.

Q answers (passive thread) with a random subset of its own view and
merges symmetrically, minus inserting a self-descriptor.

Dead-neighbour handling: if the chosen Q is sleeping or failed, its
descriptor is dropped and the node retries with the next-oldest
neighbour this same round — the standard Cyclon recovery which lets the
overlay reconfigure around switched-off PMs, the very dynamic that
Figure 1 of the paper shows is dangerous for threshold-based policies.

One Cyclon instance is shared by all nodes (state is per-node in the
``_views`` map) so the engine can also use it as a `PeerSampler`.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Any, Dict, List, Optional

import numpy as np

from repro.overlay.sampler import PeerSampler
from repro.overlay.view import PartialView
from repro.simulator.protocol import Protocol
from repro.util.io import pack_array, split_rows, unpack_array

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulator.engine import Simulation
    from repro.simulator.node import Node

__all__ = ["CyclonProtocol"]

# Estimated wire size of one descriptor (id + age + address), for traffic
# accounting only.
_DESCRIPTOR_BYTES = 16


class CyclonProtocol(Protocol, PeerSampler):
    """Shared-instance Cyclon protocol + peer sampler.

    Parameters
    ----------
    view_size:
        Partial view capacity (paper-typical: 20 for thousands of nodes).
    shuffle_len:
        Number of descriptors exchanged per shuffle (<= view_size).
    rng:
        Dedicated generator for shuffle randomness.
    """

    def __init__(
        self,
        view_size: int = 20,
        shuffle_len: int = 8,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if view_size <= 0:
            raise ValueError(f"view_size must be > 0, got {view_size}")
        if not 1 <= shuffle_len <= view_size:
            raise ValueError(
                f"shuffle_len must be in [1, view_size={view_size}], got {shuffle_len}"
            )
        self.view_size = view_size
        self.shuffle_len = shuffle_len
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._views: Dict[int, PartialView] = {}

    # -- bootstrap -----------------------------------------------------------

    def bootstrap_ring(self, node_ids: List[int]) -> None:
        """Initialise views with ring + random successors.

        Each node starts knowing its ``view_size`` ring successors; the
        first shuffles rapidly randomise this, which is the standard
        Cyclon bootstrap.
        """
        n = len(node_ids)
        if n < 2:
            raise ValueError("need at least 2 nodes to bootstrap an overlay")
        span = min(self.view_size, n - 1)
        for i, nid in enumerate(node_ids):
            view = PartialView(nid, self.view_size)
            for k in range(1, span + 1):
                view.add(node_ids[(i + k) % n])
            self._views[nid] = view

    def bootstrap_random(self, node_ids: List[int]) -> None:
        """Initialise views with uniform random neighbours."""
        n = len(node_ids)
        if n < 2:
            raise ValueError("need at least 2 nodes to bootstrap an overlay")
        span = min(self.view_size, n - 1)
        arr = np.asarray(node_ids)
        for nid in node_ids:
            view = PartialView(nid, self.view_size)
            others = arr[arr != nid]
            picks = self._rng.choice(others, size=span, replace=False)
            for p in picks:
                view.add(int(p))
            self._views[nid] = view

    def view_of(self, node_id: int) -> PartialView:
        try:
            return self._views[node_id]
        except KeyError:
            raise KeyError(
                f"node {node_id} has no Cyclon view; call bootstrap_* first"
            ) from None

    # -- PeerSampler -----------------------------------------------------------

    def select_peer(self, node: "Node", sim: "Simulation") -> Optional[int]:
        """Random *live* neighbour; prunes dead descriptors encountered."""
        view = self.view_of(node.node_id)
        candidates = view.ids()
        self._rng.shuffle(candidates)
        for nid in candidates:
            if sim.node(nid).is_up:
                return nid
            view.remove(nid)  # lazily prune dead/sleeping neighbours
        return None

    def neighbors(self, node: "Node") -> List[int]:
        return self.view_of(node.node_id).ids()

    # -- Protocol (active thread) ----------------------------------------------

    def execute_round(self, node: "Node", sim: "Simulation") -> None:
        view = self.view_of(node.node_id)
        view.increase_ages()

        # Step 2 with dead-peer recovery: walk neighbours oldest-first.
        while True:
            target = view.oldest()
            if target is None:
                return  # isolated; will be re-seeded only via inbound shuffles
            if sim.node(target).is_up:
                break
            view.remove(target)

        if not sim.network.exchange_ok(
            node.node_id,
            target,
            "cyclon/shuffle",
            size_bytes=self.shuffle_len * _DESCRIPTOR_BYTES,
        ):
            return  # message lost; retry naturally next round

        # Steps 3-4: build outgoing subset (self descriptor + random others,
        # excluding the target itself).
        out_ids, out_ages = view.sample(self.shuffle_len - 1, self._rng, exclude=target)
        out_ids.append(node.node_id)
        out_ages.append(0)

        # Passive thread at the peer: reply with a random subset, then merge.
        peer_view = self._views[target]
        in_ids, in_ages = peer_view.sample(self.shuffle_len, self._rng, exclude=node.node_id)
        peer_view.merge_received(out_ids, out_ages, sent_ids=in_ids)

        # Steps 5-7 at the initiator: target's slot is consumed first.
        view.remove(target)
        view.merge_received(in_ids, in_ages, sent_ids=out_ids)

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Every node's view as four packed columns: ``owner`` and entry
        ``count`` per view, then the ``ids`` and ``ages`` of all views
        end to end, each view in its own (load-bearing) insertion order."""
        views = self._views.values()
        return {
            "owner": pack_array(list(self._views), "<i4"),
            "count": pack_array([len(view) for view in views], "<i4"),
            "ids": pack_array(list(chain.from_iterable(v.ids() for v in views)), "<i4"),
            "ages": pack_array(list(chain.from_iterable(v.ages() for v in views)), "<i4"),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore views captured by :meth:`state_dict` (RNG state is
        managed separately, by the owning :class:`RngStreams`)."""
        owners, counts, ids, ages = (
            unpack_array(state.get(key), f"cyclon/{key}", "i")
            for key in ("owner", "count", "ids", "ages")
        )
        ids, ages = split_rows(counts, ids, "cyclon/ids"), split_rows(counts, ages, "cyclon/ages")
        for nid, view_ids, view_ages in zip(owners.tolist(), ids, ages, strict=True):
            view = self._views.get(nid)
            if view is None:
                view = PartialView(nid, self.view_size)
                self._views[nid] = view
            view.load_state_list(list(zip(view_ids.tolist(), view_ages.tolist())))

    # -- diagnostics --------------------------------------------------------------

    def in_degree_distribution(self) -> Dict[int, int]:
        """Map node id -> number of views containing it (overlay health)."""
        indeg: Dict[int, int] = {nid: 0 for nid in self._views}
        for view in self._views.values():
            for nid in view.ids():
                if nid in indeg:
                    indeg[nid] += 1
        return indeg
