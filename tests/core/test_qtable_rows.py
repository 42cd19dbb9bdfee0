"""Differential: the Q-map's read rows against the dict reference, on
tables that share storage.

``QTable.get`` / ``has`` / ``best_action(state, candidates)`` answer
from a per-state row ``{action: value}`` that is built on first read,
belongs to the storage (sharing tables share it) and must be dropped by
every write — by *rebinding*, because a table still sharing the old
arrays still holds the old rows (DESIGN.md §5e).  A stale row is
invisible to ``items()`` and to every array-level check; only a read
after a write sees it.

So each history here interleaves every writer (``set``,
``update_columns``, ``merge``, ``merge_qtables``, ``absorb``, ``copy``,
``copy_from``, ``merge_bucket`` including into an empty table,
``unpack_all``) with explicit point reads, over a pool of tables that
share storage, and after every step reads *every* table — ``get`` (two
defaults), ``has``, ``best_action`` with and without candidates,
``max_value``, over every state any table knows plus unknown and
out-of-range ones — against ``tests/core/_reference_qtable.py``, bit for
bit.  Reading every table after every step is what fills the rows the
next write has to drop.

Seven mutants must be caught by a fixed corpus of such histories: each
invalidation site left out (``_writable``, ``update_columns``, the
averaging of ``_fold``, the union rebind that ``_fold`` and
``merge_bucket`` share, an empty table adopting a bucket slice,
``_share`` keeping the adopter's own rows) and the shared rows cleared
in place instead of rebound.
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


def _hex(x: float) -> str:
    return float(x).hex()


def _apply(op: tuple, new: list, ref: List[ReferenceQTable], cls) -> None:
    name = op[0]
    if name == "set":
        _, t, s, a, v = op
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
    elif name == "merge":
        _, t, u = op
        new[t].merge(new[u])
        ref[t].merge(ref[u])
    elif name == "merge_qtables":
        _, t, u = op
        merge_qtables(new[t], new[u])
        ref[t].merge(ref[u])
        ref[u].copy_from(ref[t])
    elif name == "absorb":
        _, t, u = op
        new[t].absorb(new[u])
        ref[t].absorb(ref[u])
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
        slots = new[t].bucket_slots(k, bucket), new[u].bucket_slots(k, bucket)
        cls.merge_bucket(new[t], new[u], *slots)
        ours, peers = ref[t].partition(k, bucket), ref[u].partition(k, bucket)
        ref[t].merge(peers)
        ref[u].merge(ours)
    elif name == "unpack_all":
        new[:] = cls.unpack_all(cls.pack_all(new), "pool")
    else:  # "read": fills one row of one table before the next write
        _, t, s, a = op
        assert _hex(new[t].get(s, a)) == _hex(ref[t].get(s, a))


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


def test_a_row_read_before_a_write_to_a_sharer_is_dropped():
    """The case the rows exist for: two holders share storage and rows,
    one reads, the *other* writes, both read again."""
    a = QTable()
    a.set(2, 3, 1.0)
    a.set(2, 4, 2.0)
    b = a.copy()
    assert a.get(2, 3) == b.get(2, 3) == 1.0  # one shared row, built once
    assert a._rows is b._rows and 2 in a._rows
    b.set(2, 3, -4.0)  # every key hits: copy-on-write, then in place
    assert (a.get(2, 3), b.get(2, 3)) == (1.0, -4.0)
    b.set(2, 5, 6.0)  # a new key: a new key array
    assert (a.get(2, 5), b.get(2, 5)) == (0.0, 6.0)
    assert a.best_action(2, [3, 5]) == 3 and b.best_action(2, [3, 5]) == 5
    assert a.has(2, 4) and not a.has(2, 5) and b.has(2, 5)


# -- mutants -------------------------------------------------------------------

# The source each mutant edits, pinned verbatim: an edit that no longer
# applies fails loudly instead of passing for the wrong reason.
WRITABLE_DROP = "        self._rows = None\n        return self._vals\n"
UPDATE_DROP = (
    "        self._vals, self._owned, self._rows = np.array(vals, dtype=np.float64), True, None\n"
)
AVERAGE_DROP = "                self._vals, self._owned, self._rows = 0.5 * (va + vb), True, None\n"
UNION_DROP = "        self._keys, self._vals, self._owned, self._rows = keys, vals, True, None\n"
ADOPT_DROP = "                empty._owned, empty._rows = True, None\n"
SHARE_ADOPT = (
    "        if other._rows is None:\n"
    "            other._rows = {}\n"
    "        self._rows = other._rows\n"
)


MUTANTS = {
    "writable_keeps_rows": lambda s: replace_once(s, WRITABLE_DROP, "        return self._vals\n"),
    "update_columns_keeps_rows": lambda s: replace_once(
        s, UPDATE_DROP, UPDATE_DROP.replace(", self._rows", "").replace(", None", "")
    ),
    "fold_average_keeps_rows": lambda s: replace_once(
        s, AVERAGE_DROP, AVERAGE_DROP.replace(", self._rows", "").replace(", None", "")
    ),
    "fold_union_keeps_rows": lambda s: replace_once(
        s, UNION_DROP, UNION_DROP.replace(", self._rows", "").replace(", None", "")
    ),
    "bucket_adopt_keeps_rows": lambda s: replace_once(
        s, ADOPT_DROP, "                empty._owned = True\n"
    ),
    "share_keeps_adopters_rows": lambda s: replace_once(s, SHARE_ADOPT, ""),
    "writable_clears_in_place": lambda s: replace_once(
        s,
        WRITABLE_DROP,
        "        if self._rows is not None:\n"
        "            self._rows.clear()\n"
        "        return self._vals\n",
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
