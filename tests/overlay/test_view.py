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
        assert v.ages() == [0]  # original untouched

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
        assert 9 not in v and v.ids() == [1] and v.ages() == [2]

    def test_remove(self):
        v = view_with(ids=[1, 2])
        assert v.remove(1) is True
        assert v.remove(1) is False
        assert len(v) == 1


class TestAges:
    def test_increase_ages(self):
        v = view_with(ids=[1, 2])
        v.increase_ages()
        v.increase_ages()
        assert v.ages() == [2, 2]

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


def pair(view_entries, peer_entries, capacity=5, peer_capacity=None):
    """Initiator 0 holding ``view_entries`` and its target, peer 1, holding
    ``peer_entries`` (``[node_id, age]`` pairs, in insertion order)."""
    v, peer = PartialView(0, capacity), PartialView(1, peer_capacity or capacity)
    v.load_state_list(view_entries)
    peer.load_state_list(peer_entries)
    return v, peer


def entries(view):
    return [[nid, age] for nid, age in zip(view.ids(), view.ages())]


class TestSampling:
    """What a shuffle sends: ``length - 1`` random descriptors of the
    initiator's view other than the target's, plus its own at age 0."""

    def test_sample_respects_count_and_exclude(self, rng):
        v, peer = pair([[1, 0], [2, 0], [3, 0], [4, 0], [5, 0]], [], capacity=10)
        v.shuffle(peer, 4, rng)
        got = peer.ids()
        assert len(got) == 4 and got[-1] == 0  # three drawn, then the initiator
        assert 1 not in got and len(set(got)) == 4 and set(got[:3]) <= {2, 3, 4, 5}

    def test_sample_more_than_available_returns_all(self, rng):
        v, peer = pair([[1, 0], [2, 4], [3, 5]], [])
        state = rng.bit_generator.state
        v.shuffle(peer, 10, rng)
        # The whole pool, in view order, and no draw on either side.
        assert entries(peer) == [[2, 4], [3, 5], [0, 0]]
        assert rng.bit_generator.state == state

    def test_sample_returns_copies(self, rng):
        v, peer = pair([[1, 0], [2, 3]], [[4, 1]])
        v.shuffle(peer, 3, rng)
        assert entries(v) == [[2, 3], [4, 1]] and entries(peer) == [[4, 1], [2, 3], [0, 0]]
        peer.increase_ages()
        peer.remove(2)
        assert entries(v) == [[2, 3], [4, 1]]  # no list is shared across views


class TestMerge:
    """How each side folds in what it received (no draws here: every pool
    is no larger than what is sent from it)."""

    def test_fills_empty_slots_first(self, rng):
        v, peer = pair([[1, 0], [2, 0]], [[3, 0], [4, 0]], capacity=4)
        v.shuffle(peer, 3, rng)
        assert peer.ids() == [3, 4, 2, 0]
        assert v.ids() == [2, 3, 4]  # the target's slot went first

    def test_skips_self_and_duplicates(self, rng):
        # The peer holds the initiator: it never sends it back, and the
        # initiator's fresh descriptor is a duplicate there (age kept).
        v, peer = pair([[1, 0], [2, 0]], [[0, 9], [2, 7]], capacity=4)
        v.shuffle(peer, 3, rng)
        assert entries(peer) == [[0, 9], [2, 7]]
        assert entries(v) == [[2, 0]]  # the reply's 2 is held already

    def test_replaces_sent_entries_when_full(self, rng):
        v, peer = pair([[1, 0], [2, 0]], [[3, 0], [4, 0]], capacity=2)
        v.shuffle(peer, 2, rng)
        # The peer replied 3, 4 and receives 2, 0: it replaces what it
        # sent, last first.  The initiator fills the target's slot, then
        # replaces what it sent (2).
        assert peer.ids() == [2, 0]
        assert v.ids() == [3, 4]

    def test_full_and_nothing_sent_drops_extras(self, rng):
        # A full peer whose only neighbour is the initiator replies with
        # nothing, so it has nothing to give up for what it receives.
        v, peer = pair([[1, 0], [2, 0], [3, 0]], [[0, 5]], capacity=3, peer_capacity=1)
        v.shuffle(peer, 3, rng)
        assert entries(peer) == [[0, 5]]
        assert v.ids() == [2, 3]

    def test_merge_applies_every_rule_in_one_pass(self, rng):
        # The peer gives up what it sent (7) for 4, then is full with
        # nothing left for 5; its duplicate 0 is never reached.  The
        # initiator takes 7 into the target's freed slot.
        v, peer = pair([[1, 0], [4, 2], [5, 3]], [[0, 9], [7, 1]], capacity=3, peer_capacity=2)
        v.shuffle(peer, 3, rng)
        assert entries(peer) == [[0, 9], [4, 2]]
        assert entries(v) == [[4, 2], [5, 3], [7, 1]]

    @given(
        st.sets(st.integers(min_value=2, max_value=40), max_size=8),
        st.sets(st.integers(min_value=2, max_value=40), max_size=8),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=60)
    def test_property_invariants_hold_after_merge(self, initial, received, length):
        v = PartialView(0, 6)
        v.add(1)
        for nid in sorted(initial)[:5]:
            v.add(nid)
        peer = PartialView(1, 6)
        for nid in sorted(received)[:6]:
            peer.add(nid)
        v.shuffle(peer, length, np.random.default_rng(length))
        for view, owner in ((v, 0), (peer, 1)):
            ids = view.ids()
            assert len(ids) == len(set(ids))  # uniqueness
            assert owner not in ids  # never self
            assert len(ids) <= 6  # capacity
