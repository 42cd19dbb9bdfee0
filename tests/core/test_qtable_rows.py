"""Differential: the Q-map's position index against the dict reference,
on tables that share and un-share key arrays.

``QTable.get`` / ``has`` / ``best_action(state, candidates)`` answer
through the key array's position index: per state, ``{action: slot}``,
built on first read, and the value is ``_vals[slot]``.  The index
belongs to the key array (DESIGN.md §5e):

* every table holding the same ``_keys`` holds the same index object,
  and tables holding different key arrays hold different ones;
* tables with equal key sets hold one key array (the process-wide key
  pool), read-only and ``uint16``;
* a write that changes only values keeps the index;
* a write that binds a new key array binds a fresh index with it, never
  the old one cleared in place — the tables still holding the old keys
  still read it;
* a merge whose key set equals an input's takes that input's key array
  (and so its index) instead of keeping or building another.

A stale index is invisible to ``items()`` and to every array-level
check; only a read after a write sees it.  So each history here
interleaves every writer (``set``, ``update_columns``, ``merge``,
``merge_qtables``, ``absorb``, ``copy``, ``copy_from``, ``merge_bucket``
including into an empty table, ``unpack_all``) with explicit point
reads, over a pool of tables that share storage, and after every step
reads *every* table — ``get`` (two defaults), ``has``, ``best_action``
with and without candidates, ``max_value``, over every state any table
knows plus unknown and out-of-range ones — against
``tests/core/_reference_qtable.py``, bit for bit.  After every step it
also checks the ownership rule by identity and every index entry
against its table's keys, after every merge the key-reuse rule, and
after every ``unpack_all`` that tables share value arrays as before.

Eleven mutants must be caught by a fixed corpus of such histories: a
new key array keeping the old index at each site that binds one (the
union, ``update_columns``, an empty table adopting a bucket slice),
``_share`` keeping the adopter's own index, a pool hit binding its own
index or a pool that never hits (so a fold averaging equal key sets
keeps its own index or keys), a union bound around the pool (so one
equal to the peer's keys does not reuse them), the index cleared in
place, a pooled key array written in place, a union widened to
``intp``, and a restore that un-shares value arrays.
"""

from __future__ import annotations

import random
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import qtable as qtable_module
from repro.core.aggregation import merge_qtables
from repro.core.qtable import QTable
from repro.core.states import N_STATES
from tests._mutants import mutant_module, replace_once
from tests.core._reference_qtable import ReferenceQTable

POOL = 3
PROBE_ACTIONS = [0, 1, 2, 3, 4, N_STATES - 1, -1, N_STATES]
CANDIDATES = [4, 0, 2, N_STATES - 1, 3]
EXTRA_STATES = {0, 1, N_STATES - 1, -1, N_STATES}

# Mostly a 3x3 corner, so histories collide on keys and key sets and a
# write to one sharer often changes a value the other still reads.
coords = st.one_of(st.integers(0, 2), st.integers(0, N_STATES - 1))
values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
slots = st.integers(0, POOL - 1)
rates = st.sampled_from([0.0, 0.25, 0.5, 1.0])
transition = st.tuples(coords, coords, values, coords)

operations = st.one_of(
    st.tuples(st.just("set"), slots, coords, coords, values),
    st.tuples(st.just("update_columns"), slots, st.lists(transition, max_size=6), rates, rates),
    st.tuples(st.just("merge"), slots, slots),
    st.tuples(st.just("merge_qtables"), slots, slots),
    st.tuples(st.just("absorb"), slots, slots),
    st.tuples(st.just("copy"), slots, slots),
    st.tuples(st.just("copy_from"), slots, slots),
    st.tuples(st.just("merge_bucket"), slots, slots, st.integers(1, 4), st.integers(0, 3)),
    st.tuples(st.just("unpack_all")),
    st.tuples(st.just("read"), slots, coords, coords),
)

# Histories that mostly share key arrays (copies, push-pull merges) and
# then write values only (``rewrite``: a pair the table already holds),
# with the occasional new pair that un-shares them.
sharing_operations = st.one_of(
    st.tuples(st.just("copy"), slots, slots),
    st.tuples(st.just("copy_from"), slots, slots),
    st.tuples(st.just("merge_qtables"), slots, slots),
    st.tuples(st.just("merge"), slots, slots),
    st.tuples(st.just("rewrite"), slots, st.integers(0, 10**6), values),
    st.tuples(st.just("rewrite"), slots, st.integers(0, 10**6), values),
    st.tuples(st.just("set"), slots, coords, coords, values),
    st.tuples(st.just("read"), slots, coords, coords),
)


def _hex(x: float) -> str:
    return float(x).hex()


def _key_set(table: ReferenceQTable) -> set:
    return set(table.keys())


def _apply(op: tuple, new: list, ref: List[ReferenceQTable], cls) -> None:
    name = op[0]
    if name == "set":
        _, t, s, a, v = op
        new[t].set(s, a, v)
        ref[t].set(s, a, v)
    elif name == "rewrite":  # a value-only write, when the table has pairs
        _, t, i, v = op
        pairs = sorted(ref[t].keys())
        if pairs:
            s, a = pairs[i % len(pairs)]
            new[t].set(s, a, v)
            ref[t].set(s, a, v)
    elif name == "update_columns":
        _, t, transitions, alpha, gamma = op
        # Rewards are never -0.0: see test_qtable_differential.py.
        transitions = [(s, a, reward + 0.0, nxt) for s, a, reward, nxt in transitions]
        columns = zip(*transitions) if transitions else ((), (), (), ())
        got = new[t].update_columns(*columns, alpha, gamma)
        for (s, a, reward, nxt), (old, fresh) in zip(transitions, got):
            assert _hex(old) == _hex(ref[t].get(s, a))
            assert _hex(fresh) == _hex(ref[t].update(s, a, reward, nxt, alpha, gamma))
    elif name in ("merge", "merge_qtables", "absorb"):
        _, t, u = op
        if name == "merge":
            new[t].merge(new[u])
            ref[t].merge(ref[u])
        elif name == "absorb":
            new[t].absorb(new[u])
            ref[t].absorb(ref[u])
        else:
            merge_qtables(new[t], new[u])
            ref[t].merge(ref[u])
            ref[u].copy_from(ref[t])
        # A fold whose result holds exactly the peer's keys holds the
        # peer's key array.
        if _key_set(ref[t]) == _key_set(ref[u]) and len(ref[t]):
            assert new[t]._keys is new[u]._keys, name
    elif name == "copy":
        _, t, u = op
        new[u] = new[t].copy()
        ref[u] = ref[t].copy()
    elif name == "copy_from":
        _, t, u = op
        new[t].copy_from(new[u])
        ref[t].copy_from(ref[u])
    elif name == "merge_bucket":
        # Into an empty table (read before, like every table) it adopts
        # the slice; k = 1 shares the whole storage.
        _, t, u, k, bucket = op
        bucket %= k
        before = new[t]._keys, new[u]._keys
        slots = new[t].bucket_slots(k, bucket), new[u].bucket_slots(k, bucket)
        cls.merge_bucket(new[t], new[u], *slots)
        ours, peers = ref[t].partition(k, bucket), ref[u].partition(k, bucket)
        ref[t].merge(peers)
        ref[u].merge(ours)
        # An end that bound new keys equal to the other end's holds the
        # other end's array.
        rebound = new[t]._keys is not before[0] or new[u]._keys is not before[1]
        if rebound and _key_set(ref[t]) == _key_set(ref[u]) and len(ref[t]):
            assert new[t]._keys is new[u]._keys, name
    elif name == "unpack_all":
        shared = [[a._vals is b._vals for b in new] for a in new]
        new[:] = cls.unpack_all(cls.pack_all(new), "pool")
        # Tables that shared a value array share it again, and none owns it.
        assert [[a._vals is b._vals for b in new] for a in new] == shared
        assert not any(table._owned for table in new)
    else:  # "read": fills one index entry before the next write
        _, t, s, a = op
        assert _hex(new[t].get(s, a)) == _hex(ref[t].get(s, a))


def _assert_index_ownership(new: list) -> None:
    """One read-only ``uint16`` key array per key set, and the index
    belongs to the key array: shared exactly when the keys are, and
    every entry is what the table's own keys give."""
    for i, table in enumerate(new):
        assert table._keys.dtype == np.uint16 and not table._keys.flags.writeable
        codes = table._keys.tolist()
        for other in new[i + 1:]:
            assert (table._keys is other._keys) == (codes == other._keys.tolist())
            assert (table._keys is other._keys) == (table._index is other._index)
        for state, slots in table._index.items():
            assert slots == {
                code - state * N_STATES: at
                for at, code in enumerate(codes) if code // N_STATES == state
            }, state


def _assert_reads(new: list, ref: List[ReferenceQTable]) -> None:
    states = sorted({s for table in ref for s, _ in table.keys()} | EXTRA_STATES)
    for table, oracle in zip(new, ref):
        for s in states:
            for a in PROBE_ACTIONS:
                assert _hex(table.get(s, a)) == _hex(oracle.get(s, a)), (s, a)
                assert _hex(table.get(s, a, -7.5)) == _hex(oracle.get(s, a, -7.5)), (s, a)
                assert table.has(s, a) == oracle.has(s, a), (s, a)
            known = [c for c in CANDIDATES if oracle.has(s, c)]
            assert table.best_action(s) == oracle.best_action(s), s
            for candidates in (CANDIDATES, known):
                assert table.best_action(s, candidates) == oracle.best_action(s, candidates), s
            assert _hex(table.max_value(s) + 0.0) == _hex(oracle.max_value(s) + 0.0), s


def run_history(history: List[tuple], cls=QTable) -> None:
    new = [cls() for _ in range(POOL)]
    ref = [ReferenceQTable() for _ in range(POOL)]
    for op in history:
        _apply(op, new, ref, cls)
        _assert_index_ownership(new)
        _assert_reads(new, ref)


@settings(max_examples=150, deadline=None)
@given(st.lists(operations, max_size=25))
def test_rows_match_the_dict_reference_through_every_writer(history):
    run_history(history)


@pytest.mark.slow
@settings(max_examples=600, deadline=None)
@given(st.lists(operations, max_size=40))
def test_rows_match_the_dict_reference_through_every_writer_deep(history):
    run_history(history)


@settings(max_examples=150, deadline=None)
@given(st.lists(sharing_operations, max_size=30))
def test_reads_match_the_reference_while_tables_share_and_unshare_key_arrays(history):
    run_history(history)


def test_an_index_read_before_a_sharer_writes_stays_right():
    """Two holders share storage and index, one reads, the *other*
    writes, both read again: a value write keeps the index, a key write
    leaves the reader's index alone."""
    a = QTable()
    a.set(2, 3, 1.0)
    a.set(2, 4, 2.0)
    b = a.copy()
    assert a.get(2, 3) == b.get(2, 3) == 1.0  # one shared index entry, built once
    assert a._index is b._index and 2 in a._index
    index = a._index
    b.set(2, 3, -4.0)  # every key hits: copy-on-write of the values only
    assert b._keys is a._keys and b._index is index and 2 in index
    assert (a.get(2, 3), b.get(2, 3)) == (1.0, -4.0)
    b.set(2, 5, 6.0)  # a new key: a new key array, a fresh index
    assert b._index is not index and a._index is index and 2 in index
    assert (a.get(2, 5), b.get(2, 5)) == (0.0, 6.0)
    assert a.best_action(2, [3, 5]) == 3 and b.best_action(2, [3, 5]) == 5
    assert a.has(2, 4) and not a.has(2, 5) and b.has(2, 5)


def test_merge_qtables_of_equal_key_sets_leaves_one_key_array_and_one_index():
    """Two tables built apart over equal key sets, and a bystander
    sharing the second one's storage: all three hold one key array and
    one index from the start, and still do after the push-pull merge."""
    a = QTable.from_dict({"1": {"2": 1.0, "3": -1.0}, "4": {"0": 0.5}})
    b = QTable.from_dict({"1": {"2": 3.0, "3": 1.0}, "4": {"0": -0.5}})
    bystander = b.copy()
    bystander.set(1, 2, 7.0)  # a value write: still b's keys
    assert a._keys is b._keys and a._index is b._index and bystander._keys is b._keys
    assert b.get(1, 3) == 1.0  # fill an index entry before the merge
    keys, index = b._keys, b._index
    merge_qtables(a, b)
    for table in (a, b, bystander):
        assert table._keys is keys and table._index is index
    assert dict(a.items()) == dict(b.items()) == {(1, 2): 2.0, (1, 3): 0.0, (4, 0): 0.0}
    assert (a.get(1, 2), bystander.get(1, 2), a.best_action(4, [0, 9])) == (2.0, 7.0, 0)


def test_a_union_equal_to_the_peers_keys_takes_the_peers_array():
    a = QTable.from_dict({"1": {"2": 1.0}})
    b = QTable.from_dict({"1": {"2": 3.0, "3": 1.0}})
    a.merge(b)
    assert a._keys is b._keys and a._index is b._index
    assert a._vals is not b._vals and dict(a.items()) == {(1, 2): 2.0, (1, 3): 1.0}


def test_the_pool_forgets_a_key_set_no_table_holds():
    """The pool holds its arrays weakly: once the last table holding a
    key set goes, its entry goes, and a later equal set is a new array."""
    pool = qtable_module._POOL
    before = sum(map(len, pool.values()))
    a = QTable.from_dict({"7": {"1": 1.0, "5": 2.0}})
    b = QTable.from_dict({"7": {"1": -1.0, "5": 0.0}})
    assert a._keys is b._keys and sum(map(len, pool.values())) == before + 1
    del a, b
    assert sum(map(len, pool.values())) == before
    c = QTable.from_dict({"7": {"1": 3.0, "5": 4.0}})
    assert c.get(7, 5) == 4.0 and sum(map(len, pool.values())) == before + 1


def test_a_hash_collision_is_told_apart_by_the_bytes(monkeypatch):
    """Every digest equal: equal key sets still share one array, and
    different ones never do."""
    pool = qtable_module._POOL
    before = len(pool.get(0, ()))  # hash(b"") is 0: the empty key set
    monkeypatch.setattr(qtable_module, "hash", lambda raw: 0, raising=False)
    a = QTable.from_dict({"1": {"2": 1.0}})
    b = QTable.from_dict({"1": {"3": 1.0}})
    c = QTable.from_dict({"1": {"2": 5.0}})
    assert a._keys is c._keys and a._keys is not b._keys
    assert len(pool[0]) == before + 2
    assert (a.get(1, 2), b.get(1, 3), c.get(1, 2), b.get(1, 2)) == (1.0, 1.0, 5.0, 0.0)
    del a, b, c
    assert len(pool.get(0, ())) == before


# -- mutants -------------------------------------------------------------------

# The source each mutant edits, pinned verbatim: an edit that no longer
# applies fails loudly instead of passing for the wrong reason.
UNION_BIND = "        self._new_keys(keys)\n"
UPDATE_BIND = "            self._new_keys(np.array(keys, dtype=KEY_DTYPE))\n"
ADOPT_BIND = "                empty._new_keys(full._keys.take(slots))\n"
SHARE_BIND = "        self._adopt_keys(other)\n        self._vals = other._vals\n"
POOL_HIT = "                return pooled, entry.index\n"
NEW_INDEX = "        self._keys, self._index = _pooled(keys, {})\n"
SPAN_CODES = "(self._keys[lo:hi] - base)"
UNION_ALLOC = "        keys = np.empty(old.shape[0], dtype=KEY_DTYPE)\n"
RESTORE_SHARE = "        return [firsts[at].copy() for at in"


MUTANTS = {
    # A new key array keeping the old index, at each site binding one.
    "fold_union_keeps_index": lambda s: replace_once(
        s, UNION_BIND, "        self._keys = keys\n"
    ),
    "update_columns_keeps_index": lambda s: replace_once(
        s, UPDATE_BIND, "            self._keys = np.array(keys, dtype=KEY_DTYPE)\n"
    ),
    "bucket_adopt_keeps_index": lambda s: replace_once(
        s, ADOPT_BIND, "                empty._keys = full._keys.take(slots)\n"
    ),
    "share_keeps_adopters_index": lambda s: replace_once(
        s, SHARE_BIND, SHARE_BIND.replace("self._adopt_keys(other)", "self._keys = other._keys")
    ),
    # Equal keys, so their reads stay right: only the ownership rule sees
    # them.  A pool hit that binds its own index leaves a fold averaging
    # equal key sets with its own index; a pool that never hits, with its
    # own (equal) key array.
    "fold_average_keeps_own_index": lambda s: replace_once(
        s, POOL_HIT, "                return pooled, {}\n"
    ),
    "fold_average_keeps_own_keys": lambda s: replace_once(s, POOL_HIT, "                pass\n"),
    # The union bound around the pool: one equal to the peer's keys
    # holds a copy of them.
    "union_equal_to_peer_not_reused": lambda s: replace_once(
        s, UNION_BIND, "        self._keys, self._index = keys, {}\n"
    ),
    "index_cleared_in_place": lambda s: replace_once(
        s, NEW_INDEX,
        "        self._index.clear()\n        self._keys, self._index = _pooled(keys, self._index)\n",
    ),
    # Every holder of a key set reads one array: a writer that edits it
    # in place must be refused (pooled arrays are read-only).
    "pooled_array_written_in_place": lambda s: replace_once(
        s, SPAN_CODES,
        "np.subtract(self._keys[lo:hi], base, out=self._keys[lo:hi])",
    ),
    "union_widened_to_intp": lambda s: replace_once(
        s, UNION_ALLOC, UNION_ALLOC.replace("KEY_DTYPE", "np.intp")
    ),
    # A restore that gives each table its own copy of a shared value array.
    "restore_unshares_values": lambda s: replace_once(
        s, RESTORE_SHARE, "        return [cls._of(*firsts[at].packed()) for at in"
    ),
}


def corpus(n_histories: int = 80, length: int = 25):
    """Fixed random histories in the strategy's shape, same every run."""
    rng = random.Random(2016)

    def coord():
        return rng.randrange(3) if rng.random() < 0.8 else rng.randrange(N_STATES)

    def value():
        return rng.choice([0.0, -0.0, 1.0, -1.0, 0.5, rng.uniform(-10.0, 10.0)])

    def slot():
        return rng.randrange(POOL)

    makers = [
        lambda: ("set", slot(), coord(), coord(), value()),
        lambda: ("rewrite", slot(), rng.randrange(100), value()),
        lambda: (
            "update_columns", slot(),
            [(coord(), coord(), value(), coord()) for _ in range(rng.randrange(4))],
            rng.choice([0.25, 0.5, 1.0]), rng.choice([0.0, 0.5]),
        ),
        lambda: ("merge", slot(), slot()),
        lambda: ("merge_qtables", slot(), slot()),
        lambda: ("absorb", slot(), slot()),
        lambda: ("copy", slot(), slot()),
        lambda: ("copy_from", slot(), slot()),
        lambda: ("merge_bucket", slot(), slot(), rng.randrange(1, 4), rng.randrange(4)),
        lambda: ("unpack_all",),
        lambda: ("read", slot(), coord(), coord()),
    ]
    return [[rng.choice(makers)() for _ in range(length)] for _ in range(n_histories)]


def _survives(cls) -> bool:
    for history in corpus():
        try:
            run_history(history, cls)
        # The reference runs every corpus history without error, so a
        # refused write (a read-only pooled array) diverges too.
        except (AssertionError, ValueError):
            return False
    return True


class TestMutantsAreCaught:
    def test_unmutated_source_survives_the_corpus(self):
        assert _survives(mutant_module(qtable_module, lambda source: source + "\n").QTable)

    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_mutant_diverges_on_the_corpus(self, name):
        assert not _survives(mutant_module(qtable_module, MUTANTS[name]).QTable)
