"""Bounded partial views with entry ages — Cyclon's core data structure.

A :class:`PartialView` holds at most ``capacity`` distinct neighbour
descriptors, each a (node id, age) pair of plain ints.  Ages drive
Cyclon's self-healing: the oldest entry is the one offered for
replacement, so descriptors of dead nodes age out of the network in
O(view-size) shuffles.

Storage is two parallel lists in insertion order (a removal closes the
gap, an insertion appends — the order a dict would keep).  A view is at
most a few dozen entries, so a list scan beats hashing, ageing is one
comprehension, and a shuffle hands ids and ages around as plain lists:
nothing per descriptor is allocated or copied.
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

    def age_of(self, node_id: int) -> Optional[int]:
        """Age of ``node_id``'s descriptor, or None when absent."""
        try:
            return self._ages[self._ids.index(node_id)]
        except ValueError:
            return None

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

    def replace(self, old_id: int, node_id: int, age: int = 0) -> None:
        """Atomically swap ``old_id``'s slot for a new descriptor."""
        if not self.remove(old_id):
            raise KeyError(f"{old_id} not in view of {self.owner_id}")
        if node_id != self.owner_id and node_id not in self._ids:
            self._ids.append(node_id)
            self._ages.append(age)

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

    def random_id(self, rng: np.random.Generator) -> Optional[int]:
        """A uniformly random neighbour id, or None when empty."""
        if not self._ids:
            return None
        return self._ids[int(rng.integers(len(self._ids)))]

    def sample(
        self, count: int, rng: np.random.Generator, exclude: Optional[int] = None
    ) -> Tuple[List[int], List[int]]:
        """Up to ``count`` distinct random descriptors as aligned fresh
        ``(ids, ages)`` lists, optionally excluding one id.

        Draws from the view in insertion order less ``exclude``; the
        generator is consulted only when that pool exceeds ``count``.
        """
        ids, ages = self._ids, self._ages
        if exclude is not None and exclude in ids:
            i = ids.index(exclude)
            ids = ids[:i] + ids[i + 1 :]
            ages = ages[:i] + ages[i + 1 :]
        if count >= len(ids):
            return list(ids), list(ages)
        picks = rng.choice(len(ids), size=count, replace=False).tolist()
        return [ids[i] for i in picks], [ages[i] for i in picks]

    # -- merge (Cyclon step 7) ----------------------------------------------

    def merge_received(
        self, ids: Sequence[int], ages: Sequence[int], sent_ids: Sequence[int]
    ) -> None:
        """Fold the descriptors ``(ids, ages)`` of a shuffle into the view.

        Cyclon's rule: discard entries for self and duplicates; use empty
        slots first, then replace entries that were included in the
        outgoing shuffle (``sent_ids``, last one first — they now live at
        the peer).
        """
        own_ids, own_ages = self._ids, self._ages
        owner, capacity = self.owner_id, self.capacity
        replaceable = [nid for nid in sent_ids if nid in own_ids]
        for nid, age in zip(ids, ages):
            if nid == owner or nid in own_ids:
                continue
            if len(own_ids) >= capacity:
                if not replaceable:
                    break  # full and nothing replaceable
                i = own_ids.index(replaceable.pop())
                del own_ids[i]
                del own_ages[i]
            own_ids.append(nid)
            own_ages.append(age)

    # -- checkpointing -------------------------------------------------------

    def state_list(self) -> List[List[int]]:
        """JSON-safe ``[node_id, age]`` pairs, *in insertion order*.

        Insertion order is semantically load-bearing: it is the pool
        order :meth:`sample` draws from, so a checkpoint that reordered
        entries would change post-restore shuffle randomness.
        """
        return [[nid, age] for nid, age in zip(self._ids, self._ages)]

    def load_state_list(self, entries: Sequence[Sequence[int]]) -> None:
        """Replace the view content with ``entries`` (inverse of
        :meth:`state_list`), validating owner/duplicate/capacity."""
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
