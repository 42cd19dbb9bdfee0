"""Differential: the Q-map's position index against the dict reference,
on tables that share and un-share key arrays.

``QTable.get`` / ``has`` / ``best_action(state, candidates)`` answer
through the key array's position index: per state, ``{action: slot}``,
built on first read, and the value is ``_vals[slot]``.  The index
belongs to the key array (DESIGN.md §5e):

* every table holding the same ``_keys`` holds the same index object,
  and tables holding different key arrays hold different ones;
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
against its table's keys, and after every merge the key-reuse rule.

Eight mutants must be caught by a fixed corpus of such histories: a
new key array keeping the old index at each site that binds one (the
union, ``update_columns``, an empty table adopting a bucket slice),
``_share`` keeping the adopter's own index, an adopter of the peer's
equal keys keeping its own index or its own keys, a union equal to the
peer's keys not reusing them, and the index cleared in place.
"""

from __future__ import annotations

import random
from typing import List

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
        new[:] = cls.unpack_all(cls.pack_all(new), "pool")
    else:  # "read": fills one index entry before the next write
        _, t, s, a = op
        assert _hex(new[t].get(s, a)) == _hex(ref[t].get(s, a))


def _assert_index_ownership(new: list) -> None:
    """The index belongs to the key array: shared exactly when the keys
    are, and every entry is what the table's own keys give."""
    for i, table in enumerate(new):
        for other in new[i + 1:]:
            assert (table._keys is other._keys) == (table._index is other._index)
        codes = table._keys.tolist()
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
    """Two tables over equal key sets in different arrays, and a
    bystander sharing the second one's keys: after the push-pull merge
    all three hold one key array and one index."""
    a = QTable.from_dict({"1": {"2": 1.0, "3": -1.0}, "4": {"0": 0.5}})
    b = QTable.from_dict({"1": {"2": 3.0, "3": 1.0}, "4": {"0": -0.5}})
    bystander = b.copy()
    bystander.set(1, 2, 7.0)  # a value write: still b's keys
    assert a._keys is not b._keys and bystander._keys is b._keys
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


# -- mutants -------------------------------------------------------------------

# The source each mutant edits, pinned verbatim: an edit that no longer
# applies fails loudly instead of passing for the wrong reason.
UNION_BIND = "            self._new_keys(keys)\n"
UPDATE_BIND = "            self._new_keys(np.array(keys, dtype=np.intp))\n"
ADOPT_BIND = "                empty._new_keys(full._keys.take(slots))\n"
SHARE_BIND = "        self._adopt_keys(other)\n        self._vals = other._vals\n"
AVERAGE_ADOPT = (
    "                self._vals, self._owned = 0.5 * (va + vb), True\n"
    "                self._adopt_keys(other)\n"
)
UNION_REUSE = (
    "        if keys.shape[0] == pk.shape[0] and (kb is pk or bool((keys == pk).all())):\n"
)
NEW_INDEX = "        self._keys, self._index = keys, {}\n"


MUTANTS = {
    # A new key array keeping the old index, at each site binding one.
    "fold_union_keeps_index": lambda s: replace_once(
        s, UNION_BIND, "            self._keys = keys\n"
    ),
    "update_columns_keeps_index": lambda s: replace_once(
        s, UPDATE_BIND, "            self._keys = np.array(keys, dtype=np.intp)\n"
    ),
    "bucket_adopt_keeps_index": lambda s: replace_once(
        s, ADOPT_BIND, "                empty._keys = full._keys.take(slots)\n"
    ),
    "share_keeps_adopters_index": lambda s: replace_once(
        s, SHARE_BIND, SHARE_BIND.replace("self._adopt_keys(other)", "self._keys = other._keys")
    ),
    # Equal keys, so its reads stay right: only the ownership rule sees it.
    "fold_average_keeps_own_index": lambda s: replace_once(
        s, AVERAGE_ADOPT, AVERAGE_ADOPT.replace("self._adopt_keys(other)", "self._keys = kb")
    ),
    "fold_average_keeps_own_keys": lambda s: replace_once(
        s, AVERAGE_ADOPT, AVERAGE_ADOPT.replace("                self._adopt_keys(other)\n", "")
    ),
    "union_equal_to_peer_not_reused": lambda s: replace_once(
        s, UNION_REUSE, "        if False:\n"
    ),
    "index_cleared_in_place": lambda s: replace_once(
        s, NEW_INDEX, "        self._keys = keys\n        self._index.clear()\n"
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
        except AssertionError:
            return False
    return True


class TestMutantsAreCaught:
    def test_unmutated_source_survives_the_corpus(self):
        assert _survives(mutant_module(qtable_module, lambda source: source + "\n").QTable)

    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_mutant_diverges_on_the_corpus(self, name):
        assert not _survives(mutant_module(qtable_module, MUTANTS[name]).QTable)
