"""Tests for repro.overlay.view — bounded partial views with ages."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.view import PartialView


def view_with(owner=0, capacity=5, ids=()):
    v = PartialView(owner, capacity)
    for nid in ids:
        v.add(nid)
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
        assert v.add(0) is False
        assert len(v) == 0

    def test_rejects_duplicates(self):
        v = view_with(ids=[1])
        assert v.add(1, age=5) is False
        assert v.age_of(1) == 0  # original untouched

    def test_capacity_bound(self):
        v = view_with(capacity=2, ids=[1, 2])
        assert v.is_full
        assert v.add(3) is False
        assert len(v) == 2

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            PartialView(0, 0)

    def test_entries_are_copies(self):
        v = PartialView(0, 3)
        v.add(1, age=2)
        ids, ages = v.ids(), v.ages()
        ids.append(9)
        ages[0] = 99
        assert 9 not in v and v.age_of(1) == 2
        assert v.age_of(9) is None

    def test_remove(self):
        v = view_with(ids=[1, 2])
        assert v.remove(1) is True
        assert v.remove(1) is False
        assert len(v) == 1

    def test_replace(self):
        v = view_with(capacity=2, ids=[1, 2])
        v.replace(1, 3, age=1)
        assert 3 in v and 1 not in v

    def test_replace_missing_raises(self):
        v = view_with(ids=[1])
        with pytest.raises(KeyError):
            v.replace(9, 3)


class TestAges:
    def test_increase_ages(self):
        v = view_with(ids=[1, 2])
        v.increase_ages()
        v.increase_ages()
        assert v.age_of(1) == 2 and v.age_of(2) == 2

    def test_oldest_highest_age(self):
        v = PartialView(0, 4)
        v.add(1, age=3)
        v.add(2, age=7)
        v.add(3, age=5)
        assert v.oldest() == 2

    def test_oldest_tie_breaks_to_lowest_id(self):
        v = PartialView(0, 4)
        v.add(5, age=3)
        v.add(2, age=3)
        assert v.oldest() == 2

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
        ids, ages = v.sample(3, rng, exclude=3)
        assert len(ids) == len(ages) == 3
        assert 3 not in ids and len(set(ids)) == 3

    def test_sample_more_than_available_returns_all(self, rng):
        v = view_with(ids=[1, 2])
        ids, ages = v.sample(10, rng)
        assert ids == [1, 2] and ages == [0, 0]  # the pool, in view order

    def test_sample_returns_copies(self, rng):
        v = view_with(ids=[1])
        ids, ages = v.sample(1, rng)
        ages[0] = 42
        ids.append(7)
        assert v.age_of(1) == 0 and 7 not in v


class TestMerge:
    def test_fills_empty_slots_first(self):
        v = view_with(capacity=4, ids=[1, 2])
        v.merge_received([3, 4], [0, 0], sent_ids=[])
        assert sorted(v.ids()) == [1, 2, 3, 4]

    def test_skips_self_and_duplicates(self):
        v = view_with(owner=0, capacity=4, ids=[1])
        v.merge_received([0, 1], [0, 9], sent_ids=[])
        assert sorted(v.ids()) == [1]
        assert v.age_of(1) == 0

    def test_replaces_sent_entries_when_full(self):
        v = view_with(capacity=2, ids=[1, 2])
        v.merge_received([3], [0], sent_ids=[1])
        assert 3 in v and 2 in v and 1 not in v

    def test_full_and_nothing_sent_drops_extras(self):
        v = view_with(capacity=2, ids=[1, 2])
        v.merge_received([3, 4], [0, 0], sent_ids=[])
        assert sorted(v.ids()) == [1, 2]

    def test_merge_applies_every_rule_in_one_pass(self):
        # self, duplicate, free slot, replace-a-sent-entry, then full.
        v = view_with(owner=0, capacity=3, ids=[1, 2])
        v.merge_received([0, 1, 5, 6, 7], [0, 9, 4, 0, 0], sent_ids=[2])
        assert v.state_list() == [[1, 0], [5, 4], [6, 0]]

    @given(
        st.sets(st.integers(min_value=1, max_value=40), max_size=8),
        st.sets(st.integers(min_value=1, max_value=40), max_size=8),
    )
    @settings(max_examples=60)
    def test_property_invariants_hold_after_merge(self, initial, received):
        v = PartialView(0, 6)
        for nid in sorted(initial):
            v.add(nid)
        incoming = sorted(received)
        v.merge_received(incoming, [0] * len(incoming), sent_ids=v.ids()[:2])
        ids = v.ids()
        assert len(ids) == len(set(ids))  # uniqueness
        assert 0 not in ids  # never self
        assert len(ids) <= 6  # capacity
