"""Bounded partial views with entry ages — Cyclon's core data structure.

A :class:`PartialView` holds at most ``capacity`` distinct neighbour
descriptors, each an (id, age) pair.  Ages drive Cyclon's self-healing:
the oldest entry is the one offered for replacement, so descriptors of
dead nodes age out of the network in O(view-size) shuffles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

__all__ = ["ViewEntry", "PartialView"]


@dataclass(slots=True)
class ViewEntry:
    """A neighbour descriptor: node id plus gossip age."""

    node_id: int
    age: int = 0

    def copy(self) -> "ViewEntry":
        return ViewEntry(self.node_id, self.age)


class PartialView:
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

    def entries(self) -> List[ViewEntry]:
        return list(self._entries.values())

    def get(self, node_id: int) -> Optional[ViewEntry]:
        return self._entries.get(node_id)

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

    def replace(self, old_id: int, entry: ViewEntry) -> None:
        """Atomically swap ``old_id``'s slot for ``entry``."""
        if old_id not in self._entries:
            raise KeyError(f"{old_id} not in view of {self.owner_id}")
        del self._entries[old_id]
        if entry.node_id != self.owner_id and entry.node_id not in self._entries:
            self._entries[entry.node_id] = entry.copy()

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

    def random_id(self, rng: np.random.Generator) -> Optional[int]:
        """A uniformly random neighbour id, or None when empty."""
        if not self._entries:
            return None
        ids = list(self._entries.keys())
        return ids[int(rng.integers(len(ids)))]

    def sample(self, count: int, rng: np.random.Generator,
               exclude: Optional[int] = None) -> List[ViewEntry]:
        """Up to ``count`` distinct random entries, optionally excluding one id."""
        pool = [e for e in self._entries.values() if e.node_id != exclude]
        if count >= len(pool):
            return [e.copy() for e in pool]
        idx = rng.choice(len(pool), size=count, replace=False)
        return [pool[i].copy() for i in idx]

    # -- merge (Cyclon step 7) ----------------------------------------------

    def merge_received(
        self,
        received: Sequence[ViewEntry],
        sent: Sequence[ViewEntry],
    ) -> None:
        """Fold a shuffle reply into the view.

        Cyclon's rule: discard entries for self and duplicates; use empty
        slots first, then replace entries that were included in the
        outgoing shuffle (they now live at the peer).  The view stores
        copies, so the caller keeps ownership of ``received``.
        """
        self.adopt_received([e.copy() for e in received], sent)

    def adopt_received(
        self,
        received: Sequence[ViewEntry],
        sent: Sequence[ViewEntry],
    ) -> None:
        """:meth:`merge_received` storing the ``received`` objects
        themselves.  The caller hands them over: each must live in no
        other view (``increase_ages`` mutates entries in place) — fresh
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
        return f"PartialView(owner={self.owner_id}, size={len(ids)}/{self.capacity}, ids={ids})"
