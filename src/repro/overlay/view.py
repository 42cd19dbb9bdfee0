"""Bounded partial views with entry ages — Cyclon's core data structure.

A :class:`PartialView` holds at most ``capacity`` distinct neighbour
descriptors, each a (node id, age) pair of plain ints.  Ages drive
Cyclon's self-healing: the oldest entry is the one offered for
replacement, so descriptors of dead nodes age out of the network in
O(view-size) shuffles.

Storage is two parallel lists in insertion order (a removal closes the
gap, an insertion appends — the order a dict would keep).  A view is at
most a few dozen entries, so a list scan beats hashing, ageing is one
comprehension, and a shuffle is one pass over the two views that hands
ids and ages around as plain lists: nothing per descriptor is allocated
or copied.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["PartialView"]


class PartialView:
    """A size-bounded set of neighbour descriptors, unique by node id."""

    __slots__ = ("owner_id", "capacity", "_ids", "_ages")

    def __init__(self, owner_id: int, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        self.owner_id = int(owner_id)
        self.capacity = int(capacity)
        self._ids: List[int] = []
        self._ages: List[int] = []

    # -- basic container behaviour ---------------------------------------

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._ids

    def ids(self) -> List[int]:
        """Neighbour ids in insertion order (a copy)."""
        return list(self._ids)

    def ages(self) -> List[int]:
        """Ages aligned with :meth:`ids` (a copy)."""
        return list(self._ages)

    @property
    def is_full(self) -> bool:
        return len(self._ids) >= self.capacity

    # -- mutation ----------------------------------------------------------

    def add(self, node_id: int, age: int = 0) -> bool:
        """Insert a descriptor if there is room and it is neither the
        owner nor a duplicate.  Returns True when inserted."""
        if node_id == self.owner_id or node_id in self._ids or self.is_full:
            return False
        self._ids.append(node_id)
        self._ages.append(age)
        return True

    def remove(self, node_id: int) -> bool:
        """Drop the descriptor for ``node_id`` if present."""
        try:
            i = self._ids.index(node_id)
        except ValueError:
            return False
        del self._ids[i]
        del self._ages[i]
        return True

    def increase_ages(self) -> None:
        """Age every descriptor by one round (Cyclon step 1)."""
        self._ages = [age + 1 for age in self._ages]

    # -- selection ----------------------------------------------------------

    def oldest(self) -> Optional[int]:
        """Id of the entry with the highest age (ties broken by lowest
        id, so the result is deterministic for testability)."""
        ages = self._ages
        if not ages:
            return None
        top = max(ages)
        if ages.count(top) == 1:
            return self._ids[ages.index(top)]
        return min(nid for nid, age in zip(self._ids, ages) if age == top)

    # -- the shuffle (Cyclon steps 3-7) ----------------------------------------

    def shuffle(self, peer: "PartialView", length: int, rng: np.random.Generator) -> None:
        """One delivered Cyclon shuffle between this view's owner and the
        target, ``peer``'s owner, which this view holds.

        This owner sends ``length - 1`` random descriptors other than
        the target's plus a fresh one of itself; the peer replies with
        ``length`` random descriptors other than this owner's and folds
        in what it received; then this view drops the target's slot and
        folds in the reply.  Each side may replace exactly what it sent
        (every id it drew is still in its view), never its own fresh
        descriptor.  The draws are this side's, then the peer's
        ``rng.choice(len(pool), size, replace=False)``, each made only
        when the pool exceeds the size.
        """
        me, ids, ages = self.owner_id, self._ids, self._ages
        slot = ids.index(peer.owner_id)
        sent_ids, sent_ages = _draw(ids, ages, slot, length - 1, rng)
        peer_ids = peer._ids
        skip = peer_ids.index(me) if me in peer_ids else len(peer_ids)
        reply_ids, reply_ages = _draw(peer_ids, peer._ages, skip, length, rng)
        peer._fold(sent_ids + [me], sent_ages + [0], reply_ids)
        del ids[slot]
        del ages[slot]
        self._fold(reply_ids, reply_ages, sent_ids)

    def _fold(self, ids: List[int], ages: List[int], replaceable: List[int]) -> None:
        """Fold received descriptors in: skip ids already held, use free
        slots first, then replace ``replaceable`` (ids in this view), last
        first; stop when full with nothing left.  None of ``ids`` is the
        owner's: each side drew around the other's id."""
        own_ids, own_ages, capacity = self._ids, self._ages, self.capacity
        spare = len(replaceable)
        for nid, age in zip(ids, ages):
            if nid in own_ids:
                continue
            if len(own_ids) >= capacity:
                if not spare:
                    break  # full and nothing replaceable
                spare -= 1
                i = own_ids.index(replaceable[spare])
                del own_ids[i]
                del own_ages[i]
            own_ids.append(nid)
            own_ages.append(age)

    # -- checkpointing -------------------------------------------------------

    def load_state_list(self, entries: Sequence[Sequence[int]]) -> None:
        """Replace the view content with ``[node_id, age]`` ``entries``,
        validating owner/duplicate/capacity.  Their order becomes the
        insertion order, which is load-bearing: it is the pool order a
        shuffle draws from."""
        if len(entries) > self.capacity:
            raise ValueError(
                f"view of {self.owner_id}: {len(entries)} entries exceed "
                f"capacity {self.capacity}"
            )
        ids: List[int] = []
        ages: List[int] = []
        for nid, age in entries:
            nid = int(nid)
            if nid == self.owner_id:
                raise ValueError(f"view of {self.owner_id} contains its owner")
            if nid in ids:
                raise ValueError(f"view of {self.owner_id}: duplicate entry {nid}")
            ids.append(nid)
            ages.append(int(age))
        self._ids, self._ages = ids, ages

    def __repr__(self) -> str:
        ids = sorted(self._ids)
        return f"PartialView(owner={self.owner_id}, size={len(ids)}/{self.capacity}, ids={ids})"


def _draw(
    ids: List[int], ages: List[int], skip: int, count: int, rng: np.random.Generator
) -> Tuple[List[int], List[int]]:
    """Up to ``count`` distinct random descriptors of the pool ``ids`` /
    ``ages`` less slot ``skip`` (``len(ids)``: none), as fresh lists.

    The generator is consulted only when the pool exceeds ``count``; a
    pick ``p`` of the pool is slot ``p + (p >= skip)``.
    """
    n = len(ids) - (skip < len(ids))
    if count >= n:
        return ids[:skip] + ids[skip + 1 :], ages[:skip] + ages[skip + 1 :]
    picks = [p + (p >= skip) for p in rng.choice(n, size=count, replace=False).tolist()]
    return [ids[p] for p in picks], [ages[p] for p in picks]
