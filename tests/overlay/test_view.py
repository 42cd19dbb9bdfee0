"""Tests for repro.overlay.view — bounded partial views with ages."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.view import PartialView, ViewEntry


def view_with(owner=0, capacity=5, ids=()):
    v = PartialView(owner, capacity)
    for nid in ids:
        v.add(ViewEntry(nid))
    return v


class TestBasics:
    def test_empty(self):
        v = PartialView(0, 3)
        assert len(v) == 0 and not v.is_full

    def test_add_and_contains(self):
        v = view_with(ids=[1, 2])
        assert 1 in v and 2 in v and 3 not in v

    def test_rejects_self(self):
        v = PartialView(0, 3)
        assert v.add(ViewEntry(0)) is False
        assert len(v) == 0

    def test_rejects_duplicates(self):
        v = view_with(ids=[1])
        assert v.add(ViewEntry(1, age=5)) is False
        assert v.get(1).age == 0  # original untouched

    def test_capacity_bound(self):
        v = view_with(capacity=2, ids=[1, 2])
        assert v.is_full
        assert v.add(ViewEntry(3)) is False
        assert len(v) == 2

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            PartialView(0, 0)

    def test_entries_are_copies(self):
        v = PartialView(0, 3)
        entry = ViewEntry(1, age=2)
        v.add(entry)
        entry.age = 99
        assert v.get(1).age == 2

    def test_remove(self):
        v = view_with(ids=[1, 2])
        assert v.remove(1) is True
        assert v.remove(1) is False
        assert len(v) == 1

    def test_replace(self):
        v = view_with(capacity=2, ids=[1, 2])
        v.replace(1, ViewEntry(3, age=1))
        assert 3 in v and 1 not in v

    def test_replace_missing_raises(self):
        v = view_with(ids=[1])
        with pytest.raises(KeyError):
            v.replace(9, ViewEntry(3))


class TestAges:
    def test_increase_ages(self):
        v = view_with(ids=[1, 2])
        v.increase_ages()
        v.increase_ages()
        assert v.get(1).age == 2 and v.get(2).age == 2

    def test_oldest_highest_age(self):
        v = PartialView(0, 4)
        v.add(ViewEntry(1, age=3))
        v.add(ViewEntry(2, age=7))
        v.add(ViewEntry(3, age=5))
        assert v.oldest().node_id == 2

    def test_oldest_tie_breaks_to_lowest_id(self):
        v = PartialView(0, 4)
        v.add(ViewEntry(5, age=3))
        v.add(ViewEntry(2, age=3))
        assert v.oldest().node_id == 2

    def test_oldest_empty_is_none(self):
        assert PartialView(0, 2).oldest() is None


class TestSampling:
    def test_random_id_from_view(self, rng):
        v = view_with(ids=[1, 2, 3])
        for _ in range(20):
            assert v.random_id(rng) in (1, 2, 3)

    def test_random_id_empty_none(self, rng):
        assert PartialView(0, 2).random_id(rng) is None

    def test_sample_respects_count_and_exclude(self, rng):
        v = view_with(capacity=10, ids=[1, 2, 3, 4, 5])
        out = v.sample(3, rng, exclude=3)
        assert len(out) == 3
        assert all(e.node_id != 3 for e in out)

    def test_sample_more_than_available_returns_all(self, rng):
        v = view_with(ids=[1, 2])
        out = v.sample(10, rng)
        assert sorted(e.node_id for e in out) == [1, 2]

    def test_sample_returns_copies(self, rng):
        v = view_with(ids=[1])
        out = v.sample(1, rng)
        out[0].age = 42
        assert v.get(1).age == 0


class TestMerge:
    def test_fills_empty_slots_first(self):
        v = view_with(capacity=4, ids=[1, 2])
        v.merge_received([ViewEntry(3), ViewEntry(4)], sent=[])
        assert sorted(v.ids()) == [1, 2, 3, 4]

    def test_skips_self_and_duplicates(self):
        v = view_with(owner=0, capacity=4, ids=[1])
        v.merge_received([ViewEntry(0), ViewEntry(1, age=9)], sent=[])
        assert sorted(v.ids()) == [1]
        assert v.get(1).age == 0

    def test_replaces_sent_entries_when_full(self):
        v = view_with(capacity=2, ids=[1, 2])
        sent = [v.get(1).copy()]
        v.merge_received([ViewEntry(3)], sent=sent)
        assert 3 in v and 2 in v and 1 not in v

    def test_full_and_nothing_sent_drops_extras(self):
        v = view_with(capacity=2, ids=[1, 2])
        v.merge_received([ViewEntry(3), ViewEntry(4)], sent=[])
        assert sorted(v.ids()) == [1, 2]

    def test_merge_received_stores_copies_adopt_received_the_objects(self):
        theirs = ViewEntry(3, age=2)
        copied, adopted = view_with(capacity=4, ids=[1]), view_with(capacity=4, ids=[1])
        copied.merge_received([theirs], sent=[])
        adopted.adopt_received([theirs], sent=[])
        assert copied.get(3) is not theirs and copied.get(3).age == 2
        assert adopted.get(3) is theirs
        copied.increase_ages()
        assert theirs.age == 2  # outside callers keep ownership

    def test_adopt_received_follows_the_same_rules(self):
        # self, duplicate, free slot, replace-a-sent-entry, then full.
        a, b = view_with(owner=0, capacity=3, ids=[1, 2]), view_with(owner=0, capacity=3, ids=[1, 2])
        received = [ViewEntry(0), ViewEntry(1, age=9), ViewEntry(5), ViewEntry(6), ViewEntry(7)]
        a.merge_received(received, sent=[ViewEntry(2)])
        b.adopt_received([e.copy() for e in received], sent=[ViewEntry(2)])
        assert a.state_list() == b.state_list() == [[1, 0], [5, 0], [6, 0]]

    @given(
        st.sets(st.integers(min_value=1, max_value=40), max_size=8),
        st.sets(st.integers(min_value=1, max_value=40), max_size=8),
    )
    @settings(max_examples=60)
    def test_property_invariants_hold_after_merge(self, initial, received):
        v = PartialView(0, 6)
        for nid in sorted(initial):
            v.add(ViewEntry(nid))
        sent = v.entries()[:2]
        v.merge_received([ViewEntry(n) for n in sorted(received)], sent=sent)
        ids = v.ids()
        assert len(ids) == len(set(ids))  # uniqueness
        assert 0 not in ids  # never self
        assert len(ids) <= 6  # capacity
