"""Sparse state-action value maps with the Q-learning update and the
gossip merge, stored as packed arrays.

A :class:`QTable` stores only the (state, action) pairs that have been
observed — the paper's Algorithm 2 distinguishes "exists in both maps"
from "in only one PM", so sparsity is semantically load-bearing, not an
optimisation.  Presence is membership in one sorted, duplicate-free
array of key codes (``state * N_STATES + action``); an aligned float64
array holds the values.  Algorithm 2's merge, its one-bucket exchange
and the absorb write-back are whole-array operations over that pair,
and ``max_a Q(s', a)`` is a contiguous slice (one state's codes are
adjacent).

Storage is structurally shared: ``copy``, ``copy_from``, the merge of
equal maps and a whole-table bucket adopted by an empty map hand out the
*same* arrays.  Key arrays are never written after construction; a value
array is written in place only by the one table that owns it
(``_owned``), anyone else copies first (copy-on-write).  A merge whose
key set equals one of its inputs' takes that input's key array instead
of keeping or building another: averaging two maps over equal keys, and
a union that adds nothing beyond the peer's keys.

Point reads (``get``, ``has``, ``best_action`` over candidates) go
through the key array's *position index*: per state, an
``{action: slot}`` dict built from the state's slice on first read, and
the value is ``_vals[slot]``.  The index belongs to the key array, not
to the table: every table holding the same ``_keys`` holds the same
index object, a write that changes only values keeps it, and a write
that binds a new key array binds that array's index with it — a fresh
one, never the old one cleared in place, since the tables still holding
the old keys still read it (DESIGN.md §5e).
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
#: A position index: state -> {action: slot into the key array}.
Index = Dict[int, Dict[int, int]]
_NO_SLOTS: Dict[int, int] = {}  # a state without entries; never written
_NO_INDEX: Index = {}  # the index of _NO_KEYS; never written


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

    __slots__ = ("_keys", "_vals", "_owned", "_index")

    def __init__(self) -> None:
        #: Sorted unique key codes; never written in place.
        self._keys: np.ndarray = _NO_KEYS
        #: Aligned values; written in place only while ``_owned``.
        self._vals: np.ndarray = _NO_VALS
        #: True iff no other table can hold ``_vals``.
        self._owned = False
        #: Position index of ``_keys``, filled by reads; the same object
        #: in every table holding the same ``_keys``.
        self._index: Index = _NO_INDEX

    # -- storage ------------------------------------------------------------
    #
    # Keys and index are bound together, by these two methods only.

    def _adopt_keys(self, other: "QTable") -> None:
        """Hold ``other``'s key array, and so its index."""
        self._keys, self._index = other._keys, other._index

    def _new_keys(self, keys: np.ndarray) -> None:
        """Hold a key array no other table holds, with a fresh index."""
        self._keys, self._index = keys, {}

    def _share(self, other: "QTable") -> None:
        """Adopt ``other``'s storage; neither side may write it in place."""
        self._adopt_keys(other)
        self._vals = other._vals
        self._owned = other._owned = False

    def _writable(self) -> np.ndarray:
        """The value array, privately owned (copy-on-write)."""
        if not self._owned:
            self._vals = self._vals.copy()
            self._owned = True
        return self._vals

    def _slots(self, state: int) -> Dict[int, int]:
        """``{action: slot}`` of one state, built on first read (read
        only: every holder of the key array holds the same dict)."""
        index = self._index
        slots = index.get(state)
        if slots is None:
            if not 0 <= state < N_STATES or index is _NO_INDEX:
                return _NO_SLOTS
            lo, hi = self._state_span(state)
            base = state * N_STATES
            slots = index[state] = (
                dict(zip((self._keys[lo:hi] - base).tolist(), range(lo, hi)))
                if hi > lo else _NO_SLOTS
            )
        return slots

    @classmethod
    def _of(cls, codes: ArrayLike, values: ArrayLike) -> "QTable":
        """A table over already sorted, duplicate-free ``codes``."""
        out = cls()
        out._new_keys(np.array(codes, dtype=np.intp))
        out._vals = np.array(values, dtype=np.float64)
        out._owned = True
        return out

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

    # Out-of-range keys are never present (a flat code would alias another
    # pair or wrap from the end): such a state has no slots, and a state's
    # slots hold in-range actions only.

    def get(self, state: int, action: int, default: float = 0.0) -> float:
        slot = self._slots(state).get(action)
        return default if slot is None else self._vals.item(slot)

    def has(self, state: int, action: int) -> bool:
        return action in self._slots(state)

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
        if candidates is not None:
            # ``min(candidates, key=lambda a: (-value(a), a))``, unrolled.
            slot_of, value = self._slots(state).get, self._vals.item
            best: Optional[int] = None
            best_q = 0.0
            for a in candidates:
                slot = slot_of(a)
                q = 0.0 if slot is None else value(slot)
                if best is None or q > best_q or (q == best_q and a < best):
                    best, best_q = a, q
            return best
        lo, hi = self._state_span(state)
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
        append, n_states = out.append, N_STATES
        for state, action, reward, next_state in zip(states, actions, rewards, next_states):
            span = next_state * n_states
            lo = bisect_left(keys, span)
            hi = bisect_left(keys, span + n_states, lo)
            best_next = max(vals[lo:hi]) if hi > lo else 0.0
            code = state * n_states + action
            i = bisect_left(keys, code)
            if i < len(keys) and keys[i] == code:
                old = vals[i]
                vals[i] = new = keep * old + alpha * (reward + gamma * best_next)
            else:  # an unknown pair starts from 0
                old = 0.0
                new = keep * old + alpha * (reward + gamma * best_next)
                keys.insert(i, code)
                vals.insert(i, new)
            append((old, new))
        if len(keys) != known:  # else the key array stays, shared or not
            self._new_keys(np.array(keys, dtype=np.intp))
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
                self._adopt_keys(other)
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
        self._insert(base, idx, ~hit, kb, vb, n_new, other)

    def _insert(
        self, base: np.ndarray, idx: np.ndarray, miss: np.ndarray,
        kb: np.ndarray, vb: np.ndarray, n_new: int, peer: "QTable",
    ) -> None:
        """Rebind to the union of this table's keys (valued ``base``) and
        the ``n_new`` keys ``kb[miss]`` (valued ``vb[miss]``), each of
        which belongs before position ``idx`` of ``_keys``.  A union
        holding exactly ``peer``'s keys takes ``peer``'s array (``kb``
        is that array in a fold, a bucket slice in an exchange)."""
        # Scatter both sides into the union through one mask (a pair of
        # np.insert calls measures ~4x slower at these sizes).
        new_at = idx[miss]
        new_at += np.arange(n_new)
        old = np.empty(self._keys.shape[0] + n_new, dtype=bool)
        old.fill(True)
        old[new_at] = False
        keys = np.empty(old.shape[0], dtype=np.intp)
        vals = np.empty(old.shape[0], dtype=np.float64)
        keys[old], vals[old] = self._keys, base
        keys[new_at], vals[new_at] = kb[miss], vb[miss]
        pk = peer._keys
        # kb is inside the union: when it is the peer's whole array, equal
        # sizes already mean equal keys.
        if keys.shape[0] == pk.shape[0] and (kb is pk or bool((keys == pk).all())):
            self._adopt_keys(peer)
        else:
            self._new_keys(keys)
        self._vals, self._owned = vals, True

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

    def bucket_slots(self, n_buckets: int, bucket: int) -> np.ndarray:
        """Where the entries hashing to ``bucket`` of ``n_buckets`` sit:
        ascending positions into the storage (its length is the bucket's
        entry count).  The buckets ``0 .. k-1`` are disjoint and cover the
        table; ``k == 1`` is every entry."""
        if n_buckets <= 0:
            raise ValueError(f"n_buckets must be > 0, got {n_buckets}")
        if not 0 <= bucket < n_buckets:
            raise ValueError(f"bucket must be in [0, {n_buckets}), got {bucket}")
        return (_bucket_table(n_buckets)[self._keys] == bucket).nonzero()[0]

    @staticmethod
    def merge_bucket(a: "QTable", b: "QTable", pa: np.ndarray, pb: np.ndarray) -> None:
        """Algorithm 2's UPDATE between ``a`` and ``b``, restricted to one
        bucket (``pa`` / ``pb``: each table's :meth:`bucket_slots` of it,
        taken since its last write).

        Afterwards both hold the same bucket — the mean where both had a
        pair, the pair where one had it — and every other bucket is
        untouched: what ``a.merge(b's slice)`` then ``b.merge(a's
        slice)`` give with both slices cut first.  Both slices are cut
        before either end is written, and each mean is computed once and
        written to both ends (IEEE ``+`` commutes, so the two folds would
        have produced the same bits).
        """
        ka, va, kb, vb = a._keys, a._vals, b._keys, b._vals
        if va is vb:
            return  # shared storage: 0.5 * (x + x) == x exactly
        if not ka.shape[0] or not kb.shape[0]:
            # An empty end adopts the other's slice — by sharing when the
            # slice is the whole table; the other end has nothing to add.
            empty, full, slots = (a, b, pb) if not ka.shape[0] else (b, a, pa)
            if not slots.shape[0]:
                return
            if slots.shape[0] == full._keys.shape[0]:
                empty._share(full)
            else:
                empty._new_keys(full._keys.take(slots))
                empty._vals, empty._owned = full._vals.take(slots), True
            return
        sa_k, sa_v = ka.take(pa), va.take(pa)
        sb_k, sb_v = kb.take(pb), vb.take(pb)
        # Each slice classified against the other end's whole map.
        ia = ka.searchsorted(sb_k)
        hb = ka.take(ia, mode="clip") == sb_k
        ib = kb.searchsorted(sa_k)
        ha = kb.take(ib, mode="clip") == sa_k
        # The pairs both ends hold, in key order on either side.
        avg = 0.5 * (sa_v[ha] + sb_v[hb])
        a._merge_slice(ia, hb, avg, sb_k, sb_v, b)
        b._merge_slice(ib, ha, avg, sa_k, sa_v, a)

    def _merge_slice(
        self, idx: np.ndarray, hit: np.ndarray, avg: np.ndarray,
        keys: np.ndarray, vals: np.ndarray, peer: "QTable",
    ) -> None:
        """One end's write of :meth:`merge_bucket`: ``peer``'s slice
        ``keys`` / ``vals`` sits at (``hit``) or belongs before position
        ``idx`` of this map; hits take ``avg``, the rest are inserted."""
        n_new = hit.shape[0] - avg.shape[0]
        if not n_new:
            if avg.shape[0]:
                self._writable()[idx] = avg
            return
        base = self._vals
        if avg.shape[0]:
            if not self._owned:  # else the union below replaces it anyway
                base = base.copy()
            base[idx[hit]] = avg
        self._insert(base, idx, ~hit, keys, vals, n_new, peer)

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
