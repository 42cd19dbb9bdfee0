"""Tests-only oracle: the ``ViewEntry``-dict partial view, and the Cyclon
shuffle written against it, as ``repro.overlay`` had them before the view
became two parallel id/age sequences.

Kept verbatim (only the class names changed, the Cyclon copy is cut
down to what draws randomness or mutates views: bootstrap, ``select_peer``
and ``execute_round``, and the delivered shuffle is the function
``reference_shuffle``) as the reference
``tests/overlay/test_view_differential.py`` compares the production
overlay against: same ``state_list()`` and same generator state after
every operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

__all__ = ["ViewEntry", "ReferencePartialView", "ReferenceCyclon", "reference_shuffle"]

@dataclass(slots=True)
class ViewEntry:
    """A neighbour descriptor: node id plus gossip age."""

    node_id: int
    age: int = 0

    def copy(self) -> "ViewEntry":
        return ViewEntry(self.node_id, self.age)


class ReferencePartialView:
    """A size-bounded set of neighbour descriptors, unique by node id."""

    def __init__(self, owner_id: int, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        self.owner_id = int(owner_id)
        self.capacity = int(capacity)
        self._entries: Dict[int, ViewEntry] = {}

    # -- basic container behaviour ---------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._entries

    def ids(self) -> List[int]:
        return list(self._entries.keys())

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    # -- mutation ----------------------------------------------------------

    def add(self, entry: ViewEntry) -> bool:
        """Insert ``entry`` if there is room and it is neither the owner
        nor a duplicate.  Returns True when inserted."""
        nid = entry.node_id
        if nid == self.owner_id or nid in self._entries or self.is_full:
            return False
        self._entries[nid] = entry.copy()
        return True

    def remove(self, node_id: int) -> bool:
        """Drop the descriptor for ``node_id`` if present."""
        return self._entries.pop(node_id, None) is not None

    def increase_ages(self) -> None:
        """Age every descriptor by one round (Cyclon step 1)."""
        for entry in self._entries.values():
            entry.age += 1

    # -- selection ----------------------------------------------------------

    def oldest(self) -> Optional[ViewEntry]:
        """Entry with the highest age (ties broken by lowest id, so the
        result is deterministic for testability)."""
        if not self._entries:
            return None
        return max(self._entries.values(), key=lambda e: (e.age, -e.node_id))

    def sample(self, count: int, rng: np.random.Generator,
               exclude: Optional[int] = None) -> List[ViewEntry]:
        """Up to ``count`` distinct random entries, optionally excluding one id."""
        pool = [e for e in self._entries.values() if e.node_id != exclude]
        if count >= len(pool):
            return [e.copy() for e in pool]
        idx = rng.choice(len(pool), size=count, replace=False)
        return [pool[i].copy() for i in idx]

    # -- merge (Cyclon step 7) ----------------------------------------------

    def adopt_received(
        self,
        received: Sequence[ViewEntry],
        sent: Sequence[ViewEntry],
    ) -> None:
        """Fold a shuffle reply into the view.

        Cyclon's rule: discard entries for self and duplicates; use empty
        slots first, then replace entries that were included in the
        outgoing shuffle (they now live at the peer).  The view stores
        the ``received`` objects themselves: each must live in no other
        view (``increase_ages`` mutates entries in place) — fresh
        :meth:`sample` output qualifies."""
        sent_ids = [e.node_id for e in sent if e.node_id in self._entries]
        for entry in received:
            if entry.node_id == self.owner_id or entry.node_id in self._entries:
                continue
            if not self.is_full:
                self._entries[entry.node_id] = entry
            elif sent_ids:
                victim = sent_ids.pop()
                del self._entries[victim]
                self._entries[entry.node_id] = entry
            else:
                break  # full and nothing replaceable

    # -- checkpointing -------------------------------------------------------

    def state_list(self) -> List[List[int]]:
        """JSON-safe ``[node_id, age]`` pairs, *in insertion order*.

        Insertion order is semantically load-bearing: it is the pool
        order :meth:`sample` draws from, so a checkpoint that reordered
        entries would change post-restore shuffle randomness.
        """
        return [[e.node_id, e.age] for e in self._entries.values()]

    def load_state_list(self, entries: Sequence[Sequence[int]]) -> None:
        """Replace the view content with ``entries`` (inverse of
        :meth:`state_list`), validating owner/duplicate/capacity."""
        if len(entries) > self.capacity:
            raise ValueError(
                f"view of {self.owner_id}: {len(entries)} entries exceed "
                f"capacity {self.capacity}"
            )
        rebuilt: Dict[int, ViewEntry] = {}
        for nid, age in entries:
            nid = int(nid)
            if nid == self.owner_id:
                raise ValueError(f"view of {self.owner_id} contains its owner")
            if nid in rebuilt:
                raise ValueError(f"view of {self.owner_id}: duplicate entry {nid}")
            rebuilt[nid] = ViewEntry(nid, int(age))
        self._entries = rebuilt

    def __repr__(self) -> str:
        ids = sorted(self._entries)
        return f"ReferencePartialView(owner={self.owner_id}, size={len(ids)}/{self.capacity}, ids={ids})"


class ReferenceCyclon:
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
        self._views: Dict[int, ReferencePartialView] = {}

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
            view = ReferencePartialView(nid, self.view_size)
            for k in range(1, span + 1):
                view.add(ViewEntry(node_ids[(i + k) % n], age=0))
            self._views[nid] = view

    def bootstrap_random(self, node_ids: List[int]) -> None:
        """Initialise views with uniform random neighbours."""
        n = len(node_ids)
        if n < 2:
            raise ValueError("need at least 2 nodes to bootstrap an overlay")
        span = min(self.view_size, n - 1)
        arr = np.asarray(node_ids)
        for nid in node_ids:
            view = ReferencePartialView(nid, self.view_size)
            others = arr[arr != nid]
            picks = self._rng.choice(others, size=span, replace=False)
            for p in picks:
                view.add(ViewEntry(int(p), age=0))
            self._views[nid] = view

    def view_of(self, node_id: int) -> ReferencePartialView:
        try:
            return self._views[node_id]
        except KeyError:
            raise KeyError(
                f"node {node_id} has no Cyclon view; call bootstrap_* first"
            ) from None

    # -- PeerSampler -----------------------------------------------------------

    def select_peer(self, node: "object", sim: "object") -> Optional[int]:
        """Random *live* neighbour; prunes dead descriptors encountered."""
        view = self.view_of(node.node_id)
        candidates = view.ids()
        self._rng.shuffle(candidates)
        for nid in candidates:
            if sim.node(nid).is_up:
                return nid
            view.remove(nid)  # lazily prune dead/sleeping neighbours
        return None

    def neighbors(self, node: "object") -> List[int]:
        return self.view_of(node.node_id).ids()

    # -- Protocol (active thread) ----------------------------------------------

    def execute_round(self, node: "object", sim: "object") -> None:
        view = self.view_of(node.node_id)
        view.increase_ages()

        # Step 2 with dead-peer recovery: walk neighbours oldest-first.
        while True:
            target = view.oldest()
            if target is None:
                return  # isolated; will be re-seeded only via inbound shuffles
            peer_node = sim.node(target.node_id)
            if peer_node.is_up:
                break
            view.remove(target.node_id)

        if not sim.network.exchange_ok(
            node.node_id,
            target.node_id,
            "cyclon/shuffle",
            size_bytes=self.shuffle_len * 16,
        ):
            return  # message lost; retry naturally next round

        reference_shuffle(view, self._views[target.node_id], self.shuffle_len, self._rng)

    def state_dict(self) -> Dict[str, List[List[int]]]:
        return {str(nid): view.state_list() for nid, view in self._views.items()}


def reference_shuffle(
    view: ReferencePartialView,
    peer_view: ReferencePartialView,
    shuffle_len: int,
    rng: np.random.Generator,
) -> None:
    """``ReferenceCyclon.execute_round`` once the network delivered the
    shuffle: ``view``'s owner shuffles with ``peer_view``'s."""
    initiator_id, peer_id = view.owner_id, peer_view.owner_id
    # Steps 3-4: build outgoing subset (self descriptor + random others,
    # excluding the target itself).
    outgoing = view.sample(shuffle_len - 1, rng, exclude=peer_id)
    outgoing.append(ViewEntry(initiator_id, age=0))

    # Passive thread at the peer: reply with a random subset, then merge.
    # ``outgoing`` is the initiator's fresh sample plus its new self
    # descriptor: hand the objects over instead of copying them again.
    incoming = peer_view.sample(shuffle_len, rng, exclude=initiator_id)
    peer_view.adopt_received(outgoing, sent=incoming)

    # Steps 5-7 at the initiator: target's slot is consumed first.
    # ``incoming`` is the peer's fresh sample, ``outgoing`` (now owned
    # by the peer's view) is only read for its ids.
    view.remove(peer_id)
    view.adopt_received(incoming, sent=outgoing)
