"""Differential: Alg. 2's one-bucket exchange against the dict reference.

``QTable.merge_bucket(a, b, slots_a, slots_b)`` is the partitioned UPDATE
of one gossip contact, averaged once and written to both ends.  The
reference is the exchange it replaced: cut both slices
(``ReferenceQTable.partition``), then ``a.merge(b's slice)`` and
``b.merge(a's slice)``.  Pairs come in every relation a contact meets —
one end empty, disjoint, subset (either way round), equal key sets,
overlapping, and ends sharing storage through ``copy()`` / ``copy_from``
— each with two bystanders sharing the ends' storage (the
``pretrained.copy()`` fan-out), and every bucket of every ``k`` in 2..6
is exchanged.  Both ends must equal the reference bit for bit
(``float.hex``) and neither bystander may move; then a write through
each of the four holders may move that holder only.

A fixed corpus of such pairs must catch three mutants: the mean written
to one end only, a shared value array written in place, and our slice
gathered for the peer after our end was written.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.qtable import QTable
from repro.core.states import N_STATES
from tests.core._reference_qtable import ReferenceQTable
from tests.core.test_qtable_rows import _replace_once, mutant

RELATIONS = ("empty", "disjoint", "subset", "equal", "overlap", "copy", "copy_from")
BUCKET_COUNTS = range(2, 7)

Entries = Dict[Tuple[int, int], float]

# Mostly a 5x5 corner so the two ends collide on keys, sometimes the
# whole range so codes spread over every bucket.
coords = st.one_of(st.integers(0, 4), st.integers(0, N_STATES - 1))
values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
entries = st.dictionaries(st.tuples(coords, coords), values, max_size=30)


def _hex(table) -> Dict[Tuple[int, int], str]:
    return {key: float(value).hex() for key, value in table.items()}


def _peer_entries(relation: str, base: Entries, other: Entries) -> Entries:
    """The second end's content, in ``relation`` to ``base``."""
    if relation == "disjoint":
        return {key: v for key, v in other.items() if key not in base}
    if relation == "subset":
        return {key: other.get(key, -v) for key, v in list(base.items())[::2]}
    if relation == "equal":
        return {key: other.get(key, -v) for key, v in base.items()}
    if relation == "overlap":
        return other
    return {}  # "empty"; the sharing relations replace it


def _pair(cls, relation: str, swap: bool, base: Entries, other: Entries):
    """Two tables of ``cls`` and their two references, in ``relation``."""

    def build(table, content: Entries):
        for (s, a), v in content.items():
            table.set(s, a, v)
        return table

    a, ref_a = build(cls(), base), build(ReferenceQTable(), base)
    if relation == "copy":
        b = a.copy()
    elif relation == "copy_from":
        b = build(cls(), other)
        b.copy_from(a)
    else:
        b = build(cls(), _peer_entries(relation, base, other))
    ref_b = ReferenceQTable.from_dict({s: dict(row) for s, row in b.to_dict().items()})
    return (b, a, ref_b, ref_a) if swap else (a, b, ref_a, ref_b)


def exchange_matches_reference(cls, relation, swap, base, other, k, bucket) -> None:
    a, b, ref_a, ref_b = _pair(cls, relation, swap, base, other)
    # Bystanders sharing each end's storage.
    c = a.copy()
    d = cls()
    d.copy_from(b)
    bystanders = _hex(c), _hex(d)
    cls.merge_bucket(a, b, a.bucket_slots(k, bucket), b.bucket_slots(k, bucket))
    ours, peers = ref_a.partition(k, bucket), ref_b.partition(k, bucket)
    ref_a.merge(peers)
    ref_b.merge(ours)
    assert _hex(a) == _hex(ref_a)
    assert _hex(b) == _hex(ref_b)
    assert (_hex(c), _hex(d)) == bystanders
    _write_through_each([a, b, c, d])


def _write_through_each(holders: List[QTable]) -> None:
    """An in-place write (an existing key, when there is one) and an
    inserting one through each holder move that holder only."""
    for i, writer in enumerate(holders):
        before = [_hex(h) for h in holders]
        for s, a in list(writer.keys())[:1]:
            writer.set(s, a, 1e9 + i)
        writer.set(N_STATES - 1, i, -1e9 - i)
        assert _hex(writer) != before[i]
        assert [_hex(h) for j, h in enumerate(holders) if j != i] == [
            snapshot for j, snapshot in enumerate(before) if j != i
        ]


def run_case(cls, relation, swap, base, other) -> None:
    for k in BUCKET_COUNTS:
        for bucket in range(k):
            exchange_matches_reference(cls, relation, swap, base, other, k, bucket)


cases = dict(relation=st.sampled_from(RELATIONS), swap=st.booleans(), base=entries, other=entries)


@settings(max_examples=150, deadline=None)
@given(**cases)
def test_bucket_exchange_matches_partition_merge_merge(relation, swap, base, other):
    run_case(QTable, relation, swap, base, other)


@pytest.mark.slow
@settings(max_examples=600, deadline=None)
@given(**cases)
def test_bucket_exchange_matches_partition_merge_merge_deep(relation, swap, base, other):
    run_case(QTable, relation, swap, base, other)


# -- mutants -------------------------------------------------------------------

# The source each mutant edits, pinned verbatim (see test_qtable_rows.py).
PEER_WRITE = "        b._merge_slice(ib, ha, avg, sa_k, sa_v)\n"
IN_PLACE = "                self._writable()[idx] = avg\n"

MUTANTS = {
    "mean_written_to_one_end_only": lambda s: _replace_once(
        s, PEER_WRITE, PEER_WRITE.replace("avg", "sb_v[hb]")
    ),
    "shared_array_written_in_place": lambda s: _replace_once(
        s, IN_PLACE, IN_PLACE.replace("self._writable()", "self._vals")
    ),
    "slice_gathered_after_the_first_write": lambda s: _replace_once(
        s, PEER_WRITE, PEER_WRITE.replace("sa_v)", "a._vals.take(pa))")
    ),
}


def corpus(n_cases: int = 40):
    """Fixed random cases in the strategy's shape, same every run."""
    rng = random.Random(2027)

    def content() -> Entries:
        def coord():
            return rng.randrange(5) if rng.random() < 0.8 else rng.randrange(N_STATES)

        return {
            (coord(), coord()): rng.choice([0.0, -0.0, 1.0, -1.0, rng.uniform(-10.0, 10.0)])
            for _ in range(rng.randrange(31))
        }

    return [
        (relation, rng.random() < 0.5, content(), content())
        for _ in range(n_cases // len(RELATIONS) + 1)
        for relation in RELATIONS
    ]


def _survives(cls) -> bool:
    for case in corpus():
        try:
            run_case(cls, *case)
        except Exception:
            return False
    return True


class TestMutantsAreCaught:
    def test_unmutated_source_survives_the_corpus(self):
        assert _survives(mutant(lambda source: source + "\n"))

    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_mutant_diverges_on_the_corpus(self, name):
        assert not _survives(mutant(MUTANTS[name]))
