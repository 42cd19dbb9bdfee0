"""Tests-only oracle: the dict-of-dicts Q-map that
``repro.core.qtable.QTable`` was before it moved to packed arrays.

Kept verbatim (only the class name changed) as the reference the
differential suite compares the array-backed table against, entry by
entry and bit for bit.  A dict of ``state -> {action: q}``; iteration is
in insertion order, which the packed table replaces by sorted
``(state, action)`` order — comparisons go through ``dict(items())``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.states import N_STATES

__all__ = ["ReferenceQTable"]


class ReferenceQTable:
    """A sparse ``Q: (state, action) -> value`` map."""

    __slots__ = ("_by_state",)

    def __init__(self) -> None:
        self._by_state: Dict[int, Dict[int, float]] = {}

    # -- access -------------------------------------------------------------

    def get(self, state: int, action: int, default: float = 0.0) -> float:
        actions = self._by_state.get(state)
        if actions is None:
            return default
        return actions.get(action, default)

    def has(self, state: int, action: int) -> bool:
        actions = self._by_state.get(state)
        return actions is not None and action in actions

    def set(self, state: int, action: int, value: float) -> None:
        self._check_key(state, action)
        self._by_state.setdefault(state, {})[action] = float(value)

    def max_value(self, state: int) -> float:
        """``max_a Q(state, a)`` over *known* actions; 0.0 when none.

        Zero is the optimistic-neutral default: an unexplored successor
        state contributes no future value either way.
        """
        actions = self._by_state.get(state)
        if not actions:
            return 0.0
        return max(actions.values())

    def best_action(self, state: int, candidates: Optional[List[int]] = None) -> Optional[int]:
        """Argmax action for ``state``.

        With ``candidates``, restricts the argmax to that list treating
        unknown pairs as 0.0 (the paper's pi_out restricts to the VMs
        actually available, some of which may be unexplored); ties break
        to the lowest action code for determinism.  Without
        ``candidates``, considers known actions only and returns None
        for an unknown state.
        """
        if candidates is not None:
            if not candidates:
                return None
            return min(candidates, key=lambda a: (-self.get(state, a), a))
        actions = self._by_state.get(state)
        if not actions:
            return None
        return min(actions, key=lambda a: (-actions[a], a))

    # -- learning -------------------------------------------------------------

    def update(
        self,
        state: int,
        action: int,
        reward: float,
        next_state: int,
        alpha: float,
        gamma: float,
    ) -> float:
        """The Q-learning update (paper eq. 1)::

            Q_{t+1}(s, a) = (1 - alpha) Q_t(s, a)
                            + alpha (R + gamma * max_a' Q_t(s', a'))

        Returns the new value.  An unknown (s, a) starts from 0.
        """
        # Inlined check_fraction: update() is the training hot path, and
        # the comparison also rejects NaN (any comparison is False).
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be within [0, 1], got {alpha!r}")
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"gamma must be within [0, 1], got {gamma!r}")
        self._check_key(state, action)
        # get / max_value / set, inlined (the method-call overhead is
        # measurable at hundreds of thousands of updates per run).
        by_state = self._by_state
        actions = by_state.get(state)
        old = actions.get(action, 0.0) if actions is not None else 0.0
        nxt = by_state.get(next_state)
        best_next = max(nxt.values()) if nxt else 0.0
        new = (1.0 - alpha) * old + alpha * (reward + gamma * best_next)
        if actions is None:
            by_state[state] = {action: float(new)}
        else:
            actions[action] = float(new)
        return new

    # -- gossip merge (Algorithm 2's UPDATE) --------------------------------------

    def merge(self, other: "ReferenceQTable") -> None:
        """Symmetric-in-content merge of ``other`` into ``self``.

        For every pair present in both maps the value becomes the
        average; a pair present only in ``other`` is copied.  (Pairs only
        in ``self`` keep their value — the peer applies the same rule on
        its own copy, so after one exchange both sides hold identical
        maps.)
        """
        for state, their_actions in other._by_state.items():
            mine = self._by_state.get(state)
            if mine is None:
                # Whole state known only to the peer: bulk copy.
                self._by_state[state] = dict(their_actions)
                continue
            for action, theirs in their_actions.items():
                ours = mine.get(action)
                mine[action] = theirs if ours is None else 0.5 * (ours + theirs)

    # -- keyed partitioning (bandwidth-aware gossip) --------------------------------

    @staticmethod
    def bucket_of(state: int, action: int, n_buckets: int) -> int:
        """Deterministic bucket of a (state, action) pair.

        A fixed multiplicative hash (Knuth's 2654435761 and a Mersenne
        prime) decorrelates the bucket from the raw key arithmetic, so
        states that arrive in contiguous runs still spread across
        buckets.  Pure integer maths — stable across processes and
        Python versions, unlike ``hash``.
        """
        return ((state * 2654435761) ^ (action * 8191)) % n_buckets

    def partition(self, n_buckets: int, bucket: int) -> "ReferenceQTable":
        """The sub-table of pairs hashing to ``bucket`` of ``n_buckets``.

        ``partition(k, 0) .. partition(k, k-1)`` are disjoint and their
        union is the whole table; ``partition(1, 0)`` is a full copy.
        Entries keep their insertion order, so a ``k == 1`` slice merges
        exactly like the original table.
        """
        if n_buckets <= 0:
            raise ValueError(f"n_buckets must be > 0, got {n_buckets}")
        if not 0 <= bucket < n_buckets:
            raise ValueError(
                f"bucket must be in [0, {n_buckets}), got {bucket}"
            )
        out = ReferenceQTable()
        if n_buckets == 1:
            out._by_state = {s: dict(a) for s, a in self._by_state.items()}
            return out
        for state, actions in self._by_state.items():
            sub = {
                action: value
                for action, value in actions.items()
                if self.bucket_of(state, action, n_buckets) == bucket
            }
            if sub:
                out._by_state[state] = sub
        return out

    def bucket_len(self, n_buckets: int, bucket: int) -> int:
        """Entry count of :meth:`partition` without building the slice."""
        if n_buckets == 1:
            return len(self)
        return sum(
            1
            for state, actions in self._by_state.items()
            for action in actions
            if self.bucket_of(state, action, n_buckets) == bucket
        )

    def absorb(self, other: "ReferenceQTable") -> None:
        """Overwrite-adopt every entry of ``other`` into this table.

        The write-back half of a partitioned exchange: the merged slice's
        values replace (or add) the corresponding entries here, leaving
        all other buckets untouched.
        """
        for state, their_actions in other._by_state.items():
            mine = self._by_state.get(state)
            if mine is None:
                self._by_state[state] = dict(their_actions)
            else:
                mine.update(their_actions)

    # -- introspection ---------------------------------------------------------------

    def items(self) -> Iterator[Tuple[Tuple[int, int], float]]:
        for state, actions in self._by_state.items():
            for action, value in actions.items():
                yield (state, action), value

    def keys(self) -> Iterator[Tuple[int, int]]:
        for state, actions in self._by_state.items():
            for action in actions:
                yield (state, action)

    def states(self) -> List[int]:
        return list(self._by_state.keys())

    def state_items(self) -> Iterator[Tuple[int, Dict[int, float]]]:
        """(state, {action: q}) pairs — bulk read-out for vectorized
        consumers (the convergence matrix).  The inner dicts are live
        views; callers must not mutate them."""
        return iter(self._by_state.items())

    def __len__(self) -> int:
        return sum(len(a) for a in self._by_state.values())

    def copy(self) -> "ReferenceQTable":
        out = ReferenceQTable()
        out._by_state = {s: dict(a) for s, a in self._by_state.items()}
        return out

    def copy_from(self, other: "ReferenceQTable") -> None:
        """Replace this table's content with a copy of ``other``'s.

        Equivalent to ``set``-ting every entry of ``other`` onto a table
        whose keys are a subset of ``other``'s — the push-pull adoption
        step of the gossip merge — but in one dict copy instead of a
        per-entry loop.
        """
        self._by_state = {s: dict(a) for s, a in other._by_state.items()}

    def to_vector(self, keys: List[Tuple[int, int]]) -> np.ndarray:
        """Dense projection onto an explicit key order (0 for unknown) —
        used to compare tables across PMs (cosine similarity)."""
        return np.array([self.get(s, a) for (s, a) in keys], dtype=np.float64)

    # -- serialisation ---------------------------------------------------------------

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        """JSON-safe representation: {state: {action: value}} with string keys."""
        return {
            str(s): {str(a): v for a, v in actions.items()}
            for s, actions in self._by_state.items()
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Dict[str, float]]) -> "ReferenceQTable":
        """Inverse of :meth:`to_dict`, with key validation."""
        out = cls()
        for s_str, actions in data.items():
            for a_str, v in actions.items():
                out.set(int(s_str), int(a_str), float(v))
        return out

    @staticmethod
    def _check_key(state: int, action: int) -> None:
        if not 0 <= state < N_STATES:
            raise ValueError(f"state must be in [0, {N_STATES}), got {state}")
        if not 0 <= action < N_STATES:
            raise ValueError(f"action must be in [0, {N_STATES}), got {action}")

    def __repr__(self) -> str:
        return f"ReferenceQTable(entries={len(self)}, states={len(self._by_state)})"
