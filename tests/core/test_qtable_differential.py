"""Differential suite: the array-backed ``QTable`` against the dict
reference it replaced (``tests/core/_reference_qtable.py``).

Random histories of every mutating and deriving operation run on both
implementations side by side, over a small pool of tables so storage
sharing (copy / copy_from / merge_qtables / a whole-map bucket exchanged
into an empty table) and the copy-on-write that must follow it are
exercised, not just single-table arithmetic.  After every step every
table of the pool must equal its reference **bit for bit**
(``float.hex``): an aliasing bug shows up in a table the step did not
touch.

Two documented limits of "bit for bit":

* ``max_value`` is compared modulo the sign of a zero result.  The dict
  reference returns whichever of ``0.0`` / ``-0.0`` it *inserted* first
  (builtin ``max`` keeps the first maximum); the packed table returns
  the one with the lowest action code.  Stored values are compared
  exactly.
* For the same reason ``update`` rewards are never ``-0.0``: only then
  can that sign leak from ``max_value`` into a stored value.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import merge_qtables
from repro.core.qtable import QTable
from repro.core.states import N_STATES
from tests.core._reference_qtable import ReferenceQTable

POOL = 3
BUCKET_COUNTS = range(1, 7)

# Mostly a 5x5 corner so histories collide on keys (overlap, identical
# key sets), sometimes the whole range so codes spread over every bucket.
coords = st.one_of(st.integers(0, 4), st.integers(0, N_STATES - 1))
values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
slots = st.integers(0, POOL - 1)
rates = st.sampled_from([0.0, 0.25, 0.5, 1.0])

operations = st.one_of(
    st.tuples(st.just("set"), slots, coords, coords, values),
    st.tuples(st.just("update"), slots, coords, coords, values, coords, rates, rates),
    st.tuples(
        st.just("update_many"), slots,
        st.lists(st.tuples(coords, coords, values, coords), max_size=8), rates, rates,
    ),
    st.tuples(st.just("merge"), slots, slots),
    st.tuples(st.just("merge_qtables"), slots, slots),
    st.tuples(st.just("merge_bucket"), slots, slots, st.integers(1, 6), st.integers(0, 5)),
    st.tuples(st.just("absorb"), slots, slots),
    st.tuples(st.just("copy"), slots, slots),
    st.tuples(st.just("copy_from"), slots, slots),
    st.tuples(st.just("from_dict"), slots, slots),
    st.tuples(st.just("clear"), slots),
)


def _hex_items(table) -> Dict[Tuple[int, int], str]:
    return {key: float(value).hex() for key, value in table.items()}


def _bucket_items(table: QTable, k: int, bucket: int) -> Dict[Tuple[int, int], str]:
    """The entries ``bucket_slots`` points at, as ``_hex_items`` has them."""
    keys, vals = table.packed()
    slots = table.bucket_slots(k, bucket)
    return {
        divmod(code, N_STATES): value.hex()
        for code, value in zip(keys[slots].tolist(), vals[slots].tolist())
    }


def _apply(op: tuple, new: List[QTable], ref: List[ReferenceQTable]) -> None:
    """One step of the history, on both pools."""
    name = op[0]
    if name == "set":
        _, t, s, a, v = op
        new[t].set(s, a, v)
        ref[t].set(s, a, v)
    elif name == "update":
        _, t, s, a, reward, nxt, alpha, gamma = op
        reward += 0.0  # never -0.0, see the module docstring
        got = new[t].update(s, a, reward, nxt, alpha, gamma)
        want = ref[t].update(s, a, reward, nxt, alpha, gamma)
        assert float(got).hex() == float(want).hex()
    elif name == "update_many":
        # The batch must equal the same updates applied one by one.
        _, t, transitions, alpha, gamma = op
        transitions = [(s, a, reward + 0.0, nxt) for s, a, reward, nxt in transitions]
        got = new[t].update_many(transitions, alpha, gamma)
        for (s, a, reward, nxt), (old, fresh) in zip(transitions, got):
            assert float(old).hex() == float(ref[t].get(s, a)).hex()
            want = ref[t].update(s, a, reward, nxt, alpha, gamma)
            assert float(fresh).hex() == float(want).hex()
    elif name == "merge":
        _, t, u = op
        new[t].merge(new[u])
        ref[t].merge(ref[u])
    elif name == "merge_qtables":
        _, t, u = op
        merge_qtables(new[t], new[u])
        ref[t].merge(ref[u])  # what merge_qtables does, spelled out
        ref[u].copy_from(ref[t])
    elif name == "merge_bucket":
        # The one-bucket exchange against the reference's two folds, both
        # slices cut first (t == u exchanges a table with itself).
        _, t, u, k, bucket = op
        bucket %= k
        slots = new[t].bucket_slots(k, bucket), new[u].bucket_slots(k, bucket)
        QTable.merge_bucket(new[t], new[u], *slots)
        ours, peers = ref[t].partition(k, bucket), ref[u].partition(k, bucket)
        ref[t].merge(peers)
        ref[u].merge(ours)
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
    elif name == "from_dict":
        # Cross-feed: the packed table is rebuilt from the *reference's*
        # insertion-ordered dict, the reference from the packed one's.
        _, t, u = op
        new[u], ref[u] = (
            QTable.from_dict(ref[t].to_dict()),
            ReferenceQTable.from_dict(new[t].to_dict()),
        )
    else:
        _, t = op
        new[t] = QTable()
        ref[t] = ReferenceQTable()


def _assert_equivalent(new: QTable, ref: ReferenceQTable) -> None:
    items = _hex_items(new)
    assert items == _hex_items(ref)
    assert list(items) == sorted(items), "iteration must be in (state, action) order"
    assert len(new) == len(ref)
    for k in BUCKET_COUNTS:
        for bucket in range(k):
            assert _bucket_items(new, k, bucket) == _hex_items(ref.partition(k, bucket))
    # Every known state, plus one that is never known and two out of range.
    for state in sorted({s for s, _ in items} | {N_STATES - 1, -1, N_STATES}):
        assert (new.max_value(state) + 0.0).hex() == (ref.max_value(state) + 0.0).hex()
        assert new.best_action(state) == ref.best_action(state)
        candidates = [4, 0, 2, N_STATES - 1]
        assert new.best_action(state, candidates) == ref.best_action(state, candidates)


def _run_history(history: List[tuple]) -> None:
    new = [QTable() for _ in range(POOL)]
    ref = [ReferenceQTable() for _ in range(POOL)]
    for op in history:
        _apply(op, new, ref)
        for table, oracle in zip(new, ref):
            _assert_equivalent(table, oracle)


@settings(max_examples=250, deadline=None)
@given(st.lists(operations, max_size=25))
def test_random_histories_match_the_dict_reference(history):
    _run_history(history)


@pytest.mark.slow
@settings(max_examples=2000, deadline=None)
@given(st.lists(operations, max_size=60))
def test_random_histories_match_the_dict_reference_deep(history):
    _run_history(history)


#: ``update_columns`` transitions ``(state, action, reward, next_state)``
#: at the edges of its per-transition loop, against a warm table.
UPDATE_EDGES = {
    "next_state_with_no_known_action": [(0, 1, 1.0, 5), (2, 2, -1.0, 80), (3, 0, 0.5, 1)],
    "same_pair_twice": [(0, 1, 1.0, 0), (0, 1, 0.5, 2), (4, 4, 1.0, 0), (4, 4, 2.0, 4)],
    "next_state_is_the_state": [(0, 3, 1.0, 0), (9, 9, 1.0, 9), (9, 9, -1.0, 9)],
    "empty": [],
}


@pytest.mark.parametrize("case", sorted(UPDATE_EDGES))
def test_update_columns_edges_match_one_by_one_updates(case):
    new, ref = QTable(), ReferenceQTable()
    for s, a, v in [(0, 1, 1.5), (0, 3, -2.0), (2, 2, 0.25), (4, 4, 3.0), (80, 0, -0.5)]:
        new.set(s, a, v)
        ref.set(s, a, v)
    transitions = UPDATE_EDGES[case]
    columns = [list(column) for column in zip(*transitions)] or [[], [], [], []]
    got = new.update_columns(*columns, 0.5, 0.9)
    want = [(ref.get(s, a), ref.update(s, a, r, nxt, 0.5, 0.9)) for s, a, r, nxt in transitions]
    assert [(old.hex(), fresh.hex()) for old, fresh in got] == [
        (old.hex(), fresh.hex()) for old, fresh in want
    ]
    _assert_equivalent(new, ref)
    # The range checks run before the loop, whatever its length.
    with pytest.raises(ValueError, match="alpha"):
        new.update_columns(*columns, 1.5, 0.9)
    with pytest.raises(ValueError, match="gamma"):
        new.update_columns(*columns, 0.5, -0.1)
    _assert_equivalent(new, ref)


def test_partitions_of_every_k_reassemble_bit_for_bit():
    """Disjoint cover for every k in 1..6, and exchanging every bucket of
    a table with an empty one rebuilds it exactly, the table untouched."""
    new, ref = QTable(), ReferenceQTable()
    for i in range(200):
        s, a, v = (i * 7) % N_STATES, (i * 13) % N_STATES, (-1.0) ** i * i / 7.0
        new.set(s, a, v)
        ref.set(s, a, v)
    for k in BUCKET_COUNTS:
        rebuilt = QTable()
        for bucket in range(k):
            assert _bucket_items(new, k, bucket) == _hex_items(ref.partition(k, bucket))
            QTable.merge_bucket(
                rebuilt, new, rebuilt.bucket_slots(k, bucket), new.bucket_slots(k, bucket)
            )
        assert _hex_items(rebuilt) == _hex_items(ref)
        assert _hex_items(new) == _hex_items(ref)


def test_merge_of_disjoint_identical_and_empty_key_sets():
    def pair(entries):
        new, ref = QTable(), ReferenceQTable()
        for (s, a), v in entries.items():
            new.set(s, a, v)
            ref.set(s, a, v)
        return new, ref

    left = {(0, 1): 1.0, (3, 3): -0.0, (80, 80): 2.5}
    cases = {
        "disjoint": {(0, 0): 4.0, (3, 4): 0.0, (79, 2): -1.0},
        "identical": {(0, 1): 3.0, (3, 3): 0.0, (80, 80): -2.5},
        "superset": {(0, 1): 3.0, (3, 3): 0.0, (80, 80): -2.5, (40, 40): 9.0},
        "subset": {(3, 3): 0.0},
        "empty": {},
    }
    for right in cases.values():
        for fold in ("merge", "absorb"):
            a_new, a_ref = pair(left)
            b_new, b_ref = pair(right)
            getattr(a_new, fold)(b_new)
            getattr(a_ref, fold)(b_ref)
            assert _hex_items(a_new) == _hex_items(a_ref)
            assert _hex_items(b_new) == _hex_items(b_ref)  # other side untouched
            # ... and the mirror image, folding into the (maybe empty) right.
            a_new, a_ref = pair(left)
            getattr(b_new, fold)(a_new)
            getattr(b_ref, fold)(a_ref)
            assert _hex_items(b_new) == _hex_items(b_ref)
