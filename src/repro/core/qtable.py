"""Sparse state-action value maps with the Q-learning update and the
gossip merge, stored as packed arrays.

A :class:`QTable` stores only the (state, action) pairs that have been
observed — the paper's Algorithm 2 distinguishes "exists in both maps"
from "in only one PM", so sparsity is semantically load-bearing, not an
optimisation.  Presence is membership in one sorted, duplicate-free
array of key codes (``state * N_STATES + action``); an aligned float64
array holds the values.  Algorithm 2's merge, the keyed partition and
the absorb write-back are whole-array operations over that pair, and
``max_a Q(s', a)`` is a contiguous slice (one state's codes are
adjacent).

Storage is structurally shared: ``copy``, ``copy_from``,
``partition(1, 0)`` and the merge of equal maps hand out the *same*
arrays.  Key arrays are never written after construction; a value array
is written in place only by the one table that owns it (``_owned``),
anyone else copies first (copy-on-write).
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import ArrayLike

from repro.core.states import N_STATES
from repro.util.io import pack_array, split_rows, unpack_array

__all__ = ["QTable"]

_NO_KEYS = np.empty(0, dtype=np.intp)
_NO_VALS = np.empty(0, dtype=np.float64)


@lru_cache(maxsize=32)
def _bucket_table(n_buckets: int) -> np.ndarray:
    """Key code -> bucket, for every possible code (read-only)."""
    table = np.array(
        [
            QTable.bucket_of(state, action, n_buckets)
            for state in range(N_STATES)
            for action in range(N_STATES)
        ],
        dtype=np.intp,
    )
    table.setflags(write=False)
    return table


class QTable:
    """A sparse ``Q: (state, action) -> value`` map."""

    __slots__ = ("_keys", "_vals", "_owned")

    def __init__(self) -> None:
        #: Sorted unique key codes; never written in place.
        self._keys: np.ndarray = _NO_KEYS
        #: Aligned values; written in place only while ``_owned``.
        self._vals: np.ndarray = _NO_VALS
        #: True iff no other table can hold ``_vals``.
        self._owned = False

    # -- storage ------------------------------------------------------------

    def _share(self, other: "QTable") -> None:
        """Adopt ``other``'s storage; neither side may write it in place."""
        self._keys = other._keys
        self._vals = other._vals
        self._owned = other._owned = False

    def _writable(self) -> np.ndarray:
        """The value array, privately owned (copy-on-write)."""
        if not self._owned:
            self._vals = self._vals.copy()
            self._owned = True
        return self._vals

    @classmethod
    def _of(cls, codes: ArrayLike, values: ArrayLike) -> "QTable":
        """A table over already sorted, duplicate-free ``codes``."""
        out = cls()
        out._keys = np.array(codes, dtype=np.intp)
        out._vals = np.array(values, dtype=np.float64)
        out._owned = True
        return out

    def _find(self, state: int, action: int) -> int:
        """Index of the pair, or -1 (out-of-range keys are never present:
        a flat code would alias another pair or wrap from the end)."""
        if not (0 <= state < N_STATES and 0 <= action < N_STATES):
            return -1
        keys = self._keys
        code = state * N_STATES + action
        i = int(keys.searchsorted(code))
        if i < keys.shape[0] and keys.item(i) == code:
            return i
        return -1

    def _state_span(self, state: int) -> Tuple[int, int]:
        """``[lo, hi)``: where the entries of ``state`` sit (one state's
        codes are contiguous).  Empty for an unknown state, and for an
        out-of-range one: its code range holds no valid key."""
        span = state * N_STATES
        lo, hi = self._keys.searchsorted((span, span + N_STATES)).tolist()
        return lo, hi

    def packed(self) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only views of the storage: the sorted key codes
        (``state * N_STATES + action``) and their aligned values."""
        keys, vals = self._keys.view(), self._vals.view()
        keys.setflags(write=False)
        vals.setflags(write=False)
        return keys, vals

    # -- access -------------------------------------------------------------

    def get(self, state: int, action: int, default: float = 0.0) -> float:
        i = self._find(state, action)
        return default if i < 0 else self._vals.item(i)

    def has(self, state: int, action: int) -> bool:
        return self._find(state, action) >= 0

    def set(self, state: int, action: int, value: float) -> None:
        self._check_key(state, action)
        self._fold(self._of([state * N_STATES + action], [value]), average=False)

    def max_value(self, state: int) -> float:
        """``max_a Q(state, a)`` over *known* actions; 0.0 when none.

        Zero is the optimistic-neutral default: an unexplored successor
        state contributes no future value either way.
        """
        lo, hi = self._state_span(state)
        if lo == hi:
            return 0.0
        values = self._vals[lo:hi]
        return values.item(values.argmax())

    def best_action(self, state: int, candidates: Optional[List[int]] = None) -> Optional[int]:
        """Argmax action for ``state``.

        With ``candidates``, restricts the argmax to that list treating
        unknown pairs as 0.0 (the paper's pi_out restricts to the VMs
        actually available, some of which may be unexplored); ties break
        to the lowest action code for determinism.  Without
        ``candidates``, considers known actions only and returns None
        for an unknown state.
        """
        lo, hi = self._state_span(state)
        if candidates is not None:
            if not candidates:
                return None
            # One span read instead of one search per candidate; a code
            # outside the state's span (out-of-range action) is unknown.
            known = dict(zip(self._keys[lo:hi].tolist(), self._vals[lo:hi].tolist()))
            base = state * N_STATES
            return min(candidates, key=lambda a: (-known.get(base + a, 0.0), a))
        if lo == hi:
            return None
        # Actions of one state are sorted, and argmax keeps the first
        # maximum: ties break to the lowest action code.
        return self._keys.item(lo + int(self._vals[lo:hi].argmax())) % N_STATES

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
        return self.update_columns([state], [action], [reward], [next_state], alpha, gamma)[0][1]

    def update_many(
        self,
        transitions: Sequence[Tuple[int, int, float, int]],
        alpha: float,
        gamma: float,
    ) -> List[Tuple[float, float]]:
        """:meth:`update_columns` over ``(state, action, reward,
        next_state)`` tuples."""
        columns = zip(*transitions) if transitions else ((), (), (), ())
        return self.update_columns(*columns, alpha, gamma)

    def update_columns(
        self,
        states: Sequence[int],
        actions: Sequence[int],
        rewards: Sequence[float],
        next_states: Sequence[int],
        alpha: float,
        gamma: float,
    ) -> List[Tuple[float, float]]:
        """:meth:`update` for each position of the parallel sequences, in
        order; returns ``(old, new)`` per transition.

        One training round is a short burst of mostly-new pairs against
        a map of a few hundred, where per-call numpy overhead (not the
        work) is what a point update costs.  So the arrays are unpacked
        to lists once, the updates run one by one on those (``bisect``,
        ``insert``, ``max`` over the next state's contiguous run) and
        the result is packed once: linear in the map, which has at most
        ``N_STATES ** 2`` pairs.
        """
        # The comparisons also reject NaN (any comparison is False).
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be within [0, 1], got {alpha!r}")
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"gamma must be within [0, 1], got {gamma!r}")
        if not len(states):
            return []
        if not (0 <= min(states) and max(states) < N_STATES
                and 0 <= min(actions) and max(actions) < N_STATES):
            for state, action in zip(states, actions):
                self._check_key(state, action)
        keys, vals = self._keys.tolist(), self._vals.tolist()
        known = len(keys)
        keep = 1.0 - alpha
        out: List[Tuple[float, float]] = []
        for state, action, reward, next_state in zip(states, actions, rewards, next_states):
            span = next_state * N_STATES
            lo = bisect_left(keys, span)
            best_next = max(vals[lo:bisect_left(keys, span + N_STATES, lo)], default=0.0)
            code = state * N_STATES + action
            i = bisect_left(keys, code)
            if i < len(keys) and keys[i] == code:
                old = vals[i]
                vals[i] = new = keep * old + alpha * (reward + gamma * best_next)
            else:  # an unknown pair starts from 0
                old = 0.0
                new = keep * old + alpha * (reward + gamma * best_next)
                keys.insert(i, code)
                vals.insert(i, new)
            out.append((old, new))
        if len(keys) != known:  # else the key array stays, shared or not
            self._keys = np.array(keys, dtype=np.intp)
        self._vals, self._owned = np.array(vals, dtype=np.float64), True
        return out

    # -- gossip merge (Algorithm 2's UPDATE) --------------------------------------

    def _fold(self, other: "QTable", average: bool) -> None:
        """Union ``other`` into ``self``; a pair in both maps becomes the
        mean of the two values (``average``) or ``other``'s value."""
        ka, va = self._keys, self._vals
        kb, vb = other._keys, other._vals
        if vb is va or not kb.shape[0]:
            return  # shared storage: 0.5 * (x + x) == x exactly
        if not ka.shape[0]:
            self._share(other)
            return
        if ka is kb or (ka.shape[0] == kb.shape[0] and bool((ka == kb).all())):
            if average:
                self._vals, self._owned = 0.5 * (va + vb), True
            else:
                self._share(other)
            return
        # kb[j] sits at (hit) or belongs before (miss) position idx[j] of ka.
        idx = ka.searchsorted(kb)
        hit = ka.take(idx, mode="clip") == kb
        n_new = kb.shape[0] - int(np.count_nonzero(hit))
        if not n_new:
            base = self._writable()
            base[idx] = 0.5 * (base[idx] + vb) if average else vb
            return
        base = va
        if n_new < kb.shape[0]:
            base, at = va.copy(), idx[hit]
            base[at] = 0.5 * (base[at] + vb[hit]) if average else vb[hit]
        # Scatter both sides into the union through one mask (a pair of
        # np.insert calls measures ~4x slower at these sizes).
        miss = ~hit
        new_at = idx[miss]
        new_at += np.arange(n_new)
        old = np.empty(ka.shape[0] + n_new, dtype=bool)
        old.fill(True)
        old[new_at] = False
        keys = np.empty(old.shape[0], dtype=np.intp)
        vals = np.empty(old.shape[0], dtype=np.float64)
        keys[old], vals[old] = ka, base
        keys[new_at], vals[new_at] = kb[miss], vb[miss]
        self._keys, self._vals, self._owned = keys, vals, True

    def merge(self, other: "QTable") -> None:
        """Symmetric-in-content merge of ``other`` into ``self``.

        For every pair present in both maps the value becomes the
        average; a pair present only in ``other`` is copied.  (Pairs only
        in ``self`` keep their value — the peer applies the same rule on
        its own copy, so after one exchange both sides hold identical
        maps.)
        """
        self._fold(other, average=True)

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

    def partition(self, n_buckets: int, bucket: int) -> "QTable":
        """The sub-table of pairs hashing to ``bucket`` of ``n_buckets``.

        ``partition(k, 0) .. partition(k, k-1)`` are disjoint and their
        union is the whole table; ``partition(1, 0)`` is a full copy
        (sharing storage until either side writes).
        """
        if n_buckets <= 0:
            raise ValueError(f"n_buckets must be > 0, got {n_buckets}")
        if not 0 <= bucket < n_buckets:
            raise ValueError(f"bucket must be in [0, {n_buckets}), got {bucket}")
        out = QTable()
        if n_buckets == 1:
            out._share(self)
            return out
        mask = _bucket_table(n_buckets)[self._keys] == bucket
        out._keys, out._vals, out._owned = self._keys[mask], self._vals[mask], True
        return out

    def bucket_len(self, n_buckets: int, bucket: int) -> int:
        """Entry count of :meth:`partition` without building the slice."""
        if n_buckets == 1:
            return len(self)
        return int(np.count_nonzero(_bucket_table(n_buckets)[self._keys] == bucket))

    def absorb(self, other: "QTable") -> None:
        """Overwrite-adopt every entry of ``other`` into this table.

        Writes a slice back into a full map: ``other``'s values replace
        (or add) the corresponding entries here, every other entry is
        left untouched.
        """
        self._fold(other, average=False)

    # -- introspection ---------------------------------------------------------------
    #
    # All iteration is in sorted (state, action) order — the storage
    # order — not insertion order.

    def items(self) -> Iterator[Tuple[Tuple[int, int], float]]:
        """((state, action), value) pairs, sorted by (state, action)."""
        for code, value in zip(self._keys.tolist(), self._vals.tolist()):
            yield divmod(code, N_STATES), value

    def keys(self) -> Iterator[Tuple[int, int]]:
        """(state, action) pairs, sorted."""
        for code in self._keys.tolist():
            yield divmod(code, N_STATES)

    def states(self) -> List[int]:
        """Known states, ascending."""
        return np.unique(self._keys // N_STATES).tolist()

    def state_items(self) -> Iterator[Tuple[int, Dict[int, float]]]:
        """(state, {action: q}) pairs, states and actions ascending.
        The dicts are built per call; writing to them changes nothing."""
        by_state: Dict[int, Dict[int, float]] = {}
        for (state, action), value in self.items():
            by_state.setdefault(state, {})[action] = value
        return iter(by_state.items())

    def __len__(self) -> int:
        return self._keys.shape[0]

    def copy(self) -> "QTable":
        """An independent table (storage is shared until a write)."""
        out = QTable()
        out._share(self)
        return out

    def copy_from(self, other: "QTable") -> None:
        """Replace this table's content with ``other``'s.

        Equivalent to ``set``-ting every entry of ``other`` onto a table
        whose keys are a subset of ``other``'s — the push-pull adoption
        step of the gossip merge — by sharing ``other``'s storage.
        """
        self._share(other)

    def to_vector(self, keys: List[Tuple[int, int]]) -> np.ndarray:
        """Dense projection onto an explicit key order (0 for unknown) —
        used to compare tables across PMs (cosine similarity)."""
        return np.array([self.get(s, a) for (s, a) in keys], dtype=np.float64)

    # -- serialisation ---------------------------------------------------------------

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        """JSON-safe representation: {state: {action: value}} with string
        keys, states and actions in ascending order."""
        return {
            str(s): {str(a): v for a, v in actions.items()}
            for s, actions in self.state_items()
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Dict[str, float]]) -> "QTable":
        """Inverse of :meth:`to_dict`, with key validation."""
        flat: Dict[int, float] = {}
        for s_str, actions in data.items():
            for a_str, v in actions.items():
                state, action = int(s_str), int(a_str)
                cls._check_key(state, action)
                flat[state * N_STATES + action] = float(v)
        # Collect, sort, assign once: never one insert per entry.
        codes = sorted(flat)
        return cls._of(codes, [flat[code] for code in codes])

    @staticmethod
    def pack_all(tables: Sequence["QTable"]) -> Dict[str, Any]:
        """Many tables as three packed columns (the checkpoint form): the
        entry ``count`` of each, then every table's sorted key codes and
        aligned values end to end."""
        return {
            "count": pack_array([len(t) for t in tables], "<i4"),
            "keys": pack_array(np.concatenate([_NO_KEYS] + [t._keys for t in tables]), "<u2"),
            "vals": pack_array(np.concatenate([_NO_VALS] + [t._vals for t in tables])),
        }

    @classmethod
    def unpack_all(cls, section: Dict[str, Any], where: str) -> List["QTable"]:
        """Inverse of :meth:`pack_all`, with key validation."""
        counts = unpack_array(section.get("count"), f"{where}/count", "i")
        keys = unpack_array(section.get("keys"), f"{where}/keys", "u")
        vals = unpack_array(section.get("vals"), f"{where}/vals", "f")
        tables = []
        for codes, values in zip(split_rows(counts, keys, where), split_rows(counts, vals, where)):
            if codes.size:
                # Strictly ascending, so the last code bounds them all.
                if np.any(codes[1:] <= codes[:-1]):
                    raise ValueError(f"{where}: key codes are not sorted and unique")
                cls._check_key(*divmod(int(codes[-1]), N_STATES))
            tables.append(cls._of(codes, values))
        return tables

    @staticmethod
    def _check_key(state: int, action: int) -> None:
        if not 0 <= state < N_STATES:
            raise ValueError(f"state must be in [0, {N_STATES}), got {state}")
        if not 0 <= action < N_STATES:
            raise ValueError(f"action must be in [0, {N_STATES}), got {action}")

    def __repr__(self) -> str:
        return f"QTable(entries={len(self)}, states={len(self.states())})"
