"""Differential: the parallel-list overlay vs the ``ViewEntry``-dict oracle.

``repro.overlay`` keeps a partial view as two aligned lists of plain
ints; ``tests/overlay/_reference_view.py`` keeps the dict of mutable
``ViewEntry`` objects it replaced, with the Cyclon shuffle written
against it (``sample`` both pools, then ``adopt_received`` on each side;
``reference_shuffle``).  Both are driven through the same random history
with twin generators seeded alike, and after every operation must agree
on

* every view's ``[node_id, age]`` pairs — contents, ages *and* insertion
  order (the order a shuffle draws its pool in);
* every returned value (oldest id, selected peer);
* the generator's ``bit_generator.state`` — the same draws, in the same
  order, with the same arguments.

So a run's overlay randomness, and with it every golden digest, cannot
tell the two apart.  The one-pass ``PartialView.shuffle`` is also held to
the oracle on its edges (non-full views, a peer holding the initiator,
pools no larger than the shuffle, lengths 1 and ``view_size``), and a
fixed corpus of view histories must catch two mutants of it: the
initiator's own descriptor left replaceable, and the target's slot
dropped after the merge instead of before.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay import view as view_module
from repro.overlay.cyclon import CyclonProtocol
from repro.overlay.view import PartialView
from repro.simulator.engine import Simulation
from repro.simulator.node import Node
from tests._mutants import mutant_module, replace_once
from tests.overlay._reference_view import (
    ReferenceCyclon,
    ReferencePartialView,
    ViewEntry,
    reference_shuffle,
)

ids = st.integers(min_value=0, max_value=15)
small = st.integers(min_value=0, max_value=6)


def view_list(view) -> list:
    """``[node_id, age]`` pairs in insertion order, as the oracle's
    ``state_list`` has them."""
    return [[nid, age] for nid, age in zip(view.ids(), view.ages())]


# -- a few views: every method, and shuffles between them ----------------------

OWNERS = 3
# Often an owner's id, so views hold each other and a peer holds the
# initiator.
members = st.one_of(st.integers(0, OWNERS - 1), ids)
owners = st.integers(0, OWNERS - 1)

view_ops = st.one_of(
    st.tuples(st.just("add"), owners, members, small),
    st.tuples(st.just("add"), owners, members, small),
    st.tuples(st.just("remove"), owners, members),
    st.tuples(st.just("age"), owners),
    st.tuples(st.just("oldest"), owners),
    st.tuples(st.just("shuffle"), owners, owners, st.integers(1, 8)),
    st.tuples(st.just("shuffle"), owners, owners, st.integers(1, 8)),
)


def run_view_history(capacity, seed, ops, cls=PartialView) -> None:
    new = [cls(owner, capacity) for owner in range(OWNERS)]
    ref = [ReferencePartialView(owner, capacity) for owner in range(OWNERS)]
    new_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for op in ops:
        kind, v = op[0], op[1]
        if kind == "add":
            assert new[v].add(op[2], op[3]) == ref[v].add(ViewEntry(op[2], op[3]))
        elif kind == "remove":
            assert new[v].remove(op[2]) == ref[v].remove(op[2])
        elif kind == "age":
            new[v].increase_ages()
            ref[v].increase_ages()
        elif kind == "oldest":
            oldest = ref[v].oldest()
            assert new[v].oldest() == (None if oldest is None else oldest.node_id)
        elif op[2] in ref[v]:  # a shuffle needs its target in the view
            length = min(op[3], capacity)  # 1 .. view_size, as Cyclon allows
            new[v].shuffle(new[op[2]], length, new_rng)
            reference_shuffle(ref[v], ref[op[2]], length, ref_rng)
        for view, oracle in zip(new, ref):
            assert view_list(view) == oracle.state_list()
            assert view.ids() == oracle.ids() and len(view) == len(oracle)
            assert [n in view for n in range(16)] == [n in oracle for n in range(16)]
            assert view.is_full == oracle.is_full
        assert new_rng.bit_generator.state == ref_rng.bit_generator.state


view_histories = dict(
    capacity=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**20),
    ops=st.lists(view_ops, min_size=1, max_size=40),
)


@settings(max_examples=150, deadline=None)
@given(**view_histories)
def test_view_histories_match_the_reference(capacity, seed, ops):
    run_view_history(capacity, seed, ops)


@pytest.mark.slow
@settings(max_examples=1500, deadline=None)
@given(**view_histories)
def test_view_histories_match_the_reference_deep(capacity, seed, ops):
    run_view_history(capacity, seed, ops)


# -- the shuffle's edges -------------------------------------------------------

#: ``(capacity, initiator's entries, peer's entries, shuffle length)``;
#: the initiator is node 0, the peer (its target) node 1.
SHUFFLE_EDGES = {
    "non_full_views": (6, [(1, 3), (2, 1), (3, 0)], [(4, 2), (5, 0)], 3),
    "peer_holds_the_initiator": (
        5, [(1, 4), (2, 1), (3, 2), (4, 0), (5, 3)], [(0, 7), (6, 1), (7, 0), (8, 2), (9, 5)], 3
    ),
    "pools_no_larger_than_the_length": (4, [(1, 2), (2, 0), (3, 1)], [(0, 1), (4, 0), (5, 3)], 3),
    "length_one": (4, [(1, 2), (2, 0), (3, 1), (4, 4)], [(5, 0), (6, 1), (7, 2), (8, 3)], 1),
    "length_of_the_view": (
        4, [(1, 2), (2, 0), (3, 1), (4, 4)], [(5, 0), (6, 1), (0, 2), (8, 3)], 4
    ),
    "full_with_nothing_sent": (3, [(1, 0), (2, 1), (3, 2)], [(0, 5)], 3),
}


def _views(cls, capacity, entries, peer_entries):
    view, peer = cls(0, capacity), cls(1, capacity)
    view.load_state_list(entries)
    peer.load_state_list(peer_entries)
    return view, peer


@pytest.mark.parametrize("case", sorted(SHUFFLE_EDGES))
def test_shuffle_edges_match_the_reference(case):
    capacity, entries, peer_entries, length = SHUFFLE_EDGES[case]
    view, peer = _views(PartialView, capacity, entries, peer_entries)
    ref_view, ref_peer = _views(ReferencePartialView, capacity, entries, peer_entries)
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    untouched = rng.bit_generator.state
    view.shuffle(peer, length, rng)
    reference_shuffle(ref_view, ref_peer, length, ref_rng)
    assert view_list(view) == ref_view.state_list()
    assert view_list(peer) == ref_peer.state_list()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    if case == "pools_no_larger_than_the_length":
        assert rng.bit_generator.state == untouched  # neither side drew


# -- mutants -------------------------------------------------------------------

# The source each mutant edits, pinned verbatim: an edit that no longer
# applies fails loudly instead of passing for the wrong reason.
INITIATOR_FOLD = "        self._fold(reply_ids, reply_ages, sent_ids)\n"
DROP_THEN_FOLD = "        del ids[slot]\n        del ages[slot]\n" + INITIATOR_FOLD

VIEW_MUTANTS = {
    "replaceable_includes_the_self_descriptor": (
        INITIATOR_FOLD, INITIATOR_FOLD.replace("sent_ids)", "sent_ids + [me])")
    ),
    "target_slot_dropped_after_the_merge": (
        DROP_THEN_FOLD, INITIATOR_FOLD + "        self.remove(peer.owner_id)\n"
    ),
}


def view_corpus(n_histories: int = 60, length: int = 30):
    """Fixed random view histories in the strategy's shape."""
    rng = random.Random(2016)

    def member():
        return rng.randrange(OWNERS) if rng.random() < 0.3 else rng.randrange(16)

    def owner():
        return rng.randrange(OWNERS)

    makers = [
        lambda: ("add", owner(), member(), rng.randrange(7)),
        lambda: ("add", owner(), member(), rng.randrange(7)),
        lambda: ("remove", owner(), member()),
        lambda: ("age", owner()),
        lambda: ("shuffle", owner(), owner(), rng.randrange(1, 9)),
        lambda: ("shuffle", owner(), owner(), rng.randrange(1, 9)),
    ]
    return [
        (rng.randrange(1, 9), rng.randrange(2**20), [rng.choice(makers)() for _ in range(length)])
        for _ in range(n_histories)
    ]


def _view_survives(cls) -> bool:
    for history in view_corpus():
        try:
            run_view_history(*history, cls=cls)
        except Exception:
            return False
    return True


class TestViewMutantsAreCaught:
    def test_unmutated_source_survives_the_corpus(self):
        assert _view_survives(mutant_module(view_module, lambda s: s + "\n").PartialView)

    @pytest.mark.parametrize("name", sorted(VIEW_MUTANTS))
    def test_mutant_diverges_on_the_corpus(self, name):
        assert not _view_survives(
            mutant_module(view_module, lambda s: replace_once(s, *VIEW_MUTANTS[name])).PartialView
        )


# -- the shuffle: Cyclon histories over a small population ---------------------

overlay_ops = st.one_of(
    st.tuples(st.just("shuffle"), ids),
    st.tuples(st.just("shuffle"), ids),
    st.tuples(st.just("round")),
    st.tuples(st.just("select"), ids),
    st.tuples(st.just("sleep"), ids),
    st.tuples(st.just("wake"), ids),
    st.tuples(st.just("partition"), ids),
    st.tuples(st.just("heal")),
    st.tuples(st.just("checkpoint")),
)


def view_lists(overlay) -> dict:
    """Every view of the overlay as ``[node_id, age]`` pairs (the
    oracle's ``state_dict``; the overlay's own is packed columns)."""
    return {str(nid): view_list(view) for nid, view in overlay._views.items()}


class Twin:
    """One overlay implementation on its own simulation and generator."""

    def __init__(self, cls, n, view_size, shuffle_len, seed, bootstrap):
        self.rng = np.random.default_rng(seed)
        self.sim = Simulation([Node(i) for i in range(n)], np.random.default_rng(0))
        self.overlay = cls(view_size=view_size, shuffle_len=shuffle_len, rng=self.rng)
        getattr(self.overlay, f"bootstrap_{bootstrap}")(list(range(n)))

    def apply(self, op):
        kind, sim = op[0], self.sim
        n = len(sim.nodes)
        if kind == "shuffle":
            node = sim.node(op[1] % n)
            if node.is_up:
                self.overlay.execute_round(node, sim)
        elif kind == "round":
            for node in sim.nodes:
                if node.is_up:
                    self.overlay.execute_round(node, sim)
        elif kind == "select":
            return self.overlay.select_peer(sim.node(op[1] % n), sim)
        elif kind == "sleep":
            sim.node(op[1] % n).sleep()
        elif kind == "wake":
            sim.node(op[1] % n).wake()
        elif kind == "partition":
            # A clean cut drops the shuffle with no draw: the lost-message path.
            sim.network.set_partition([range(op[1] % n + 1)])
        elif kind == "heal":
            sim.network.clear_partition()
        return None

    def observed(self):
        return (
            view_lists(self.overlay) if isinstance(self.overlay, CyclonProtocol)
            else self.overlay.state_dict(),
            self.rng.bit_generator.state,
            self.sim.network.stats.messages_sent,
        )


def run_overlay_history(n, view_size, shuffle_len, seed, bootstrap, ops) -> None:
    shuffle_len = min(shuffle_len, view_size)
    args = (n, view_size, shuffle_len, seed, bootstrap)
    new, ref = Twin(CyclonProtocol, *args), Twin(ReferenceCyclon, *args)
    assert new.observed() == ref.observed()
    for op in ops:
        if op[0] == "checkpoint":
            # A state_dict round-trip through JSON changes nothing: a
            # fresh overlay loaded from it holds the oracle's views.
            state = json.loads(json.dumps(new.overlay.state_dict()))
            restored = CyclonProtocol(view_size=view_size, shuffle_len=shuffle_len)
            restored.load_state_dict(state)
            assert restored.state_dict() == state
            assert view_lists(restored) == ref.overlay.state_dict()
            new.overlay.load_state_dict(state)
        else:
            assert new.apply(op) == ref.apply(op)
        assert new.observed() == ref.observed()


overlay_histories = dict(
    n=st.integers(min_value=2, max_value=12),
    view_size=st.integers(min_value=1, max_value=6),
    shuffle_len=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**20),
    bootstrap=st.sampled_from(["ring", "random"]),
    ops=st.lists(overlay_ops, min_size=1, max_size=40),
)


@settings(max_examples=100, deadline=None)
@given(**overlay_histories)
def test_overlay_histories_match_the_reference(n, view_size, shuffle_len, seed, bootstrap, ops):
    run_overlay_history(n, view_size, shuffle_len, seed, bootstrap, ops)


@pytest.mark.slow
@settings(max_examples=1000, deadline=None)
@given(**overlay_histories)
def test_overlay_histories_match_the_reference_deep(
    n, view_size, shuffle_len, seed, bootstrap, ops
):
    run_overlay_history(n, view_size, shuffle_len, seed, bootstrap, ops)


def test_paper_sized_overlay_matches_the_reference_through_churn():
    """view_size 20 / shuffle_len 8 as the policies configure it: 12 full
    rounds over 60 nodes with a third of them switched off part-way."""
    args = (60, 20, 8, 2016, "random")
    new, ref = Twin(CyclonProtocol, *args), Twin(ReferenceCyclon, *args)
    history = [("round",)] * 4 + [("sleep", i) for i in range(0, 60, 3)]
    history += [("round",)] * 4 + [("select", i) for i in range(1, 60, 3)]
    history += [("wake", i) for i in range(0, 60, 6)] + [("round",)] * 4
    for op in history:
        assert new.apply(op) == ref.apply(op)
        assert new.observed() == ref.observed()
