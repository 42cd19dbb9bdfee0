"""Differential: the parallel-list overlay vs the ``ViewEntry``-dict oracle.

``repro.overlay`` keeps a partial view as two aligned lists of plain
ints; ``tests/overlay/_reference_view.py`` keeps the dict of mutable
``ViewEntry`` objects it replaced, with the Cyclon shuffle written
against it.  Both are driven through the same random history with twin
generators seeded alike, and after every operation must agree on

* every view's ``state_list()`` — contents, ages *and* insertion order
  (the order ``sample`` draws its pool in);
* every returned value (oldest id, sampled descriptors, selected peer);
* the generator's ``bit_generator.state`` — the same draws, in the same
  order, with the same arguments.

So a run's overlay randomness, and with it every golden digest, cannot
tell the two apart.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.cyclon import CyclonProtocol
from repro.overlay.view import PartialView
from repro.simulator.engine import Simulation
from repro.simulator.node import Node
from tests.overlay._reference_view import ReferenceCyclon, ReferencePartialView, ViewEntry

ids = st.integers(min_value=0, max_value=15)
small = st.integers(min_value=0, max_value=6)


# -- one view, every method ---------------------------------------------------

view_ops = st.one_of(
    st.tuples(st.just("add"), ids, small),
    st.tuples(st.just("remove"), ids),
    st.tuples(st.just("replace"), ids, ids, small),
    st.tuples(st.just("age")),
    st.tuples(st.just("oldest")),
    st.tuples(st.just("random_id")),
    st.tuples(st.just("sample"), small, st.none() | ids),
    st.tuples(
        st.just("merge"),
        st.lists(st.tuples(ids, small), max_size=8, unique_by=lambda e: e[0]),
        st.lists(ids, max_size=8, unique=True),
    ),
)


def run_view_history(capacity, seed, ops) -> None:
    new, ref = PartialView(0, capacity), ReferencePartialView(0, capacity)
    new_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for op in ops:
        kind = op[0]
        if kind == "add":
            assert new.add(op[1], op[2]) == ref.add(ViewEntry(op[1], op[2]))
        elif kind == "remove":
            assert new.remove(op[1]) == ref.remove(op[1])
        elif kind == "replace":
            if op[1] in ref:
                new.replace(op[1], op[2], op[3])
                ref.replace(op[1], ViewEntry(op[2], op[3]))
            else:
                with pytest.raises(KeyError):
                    new.replace(op[1], op[2], op[3])
        elif kind == "age":
            new.increase_ages()
            ref.increase_ages()
        elif kind == "oldest":
            oldest = ref.oldest()
            assert new.oldest() == (None if oldest is None else oldest.node_id)
        elif kind == "random_id":
            assert new.random_id(new_rng) == ref.random_id(ref_rng)
        elif kind == "sample":
            got_ids, got_ages = new.sample(op[1], new_rng, exclude=op[2])
            want = ref.sample(op[1], ref_rng, exclude=op[2])
            assert got_ids == [e.node_id for e in want]
            assert got_ages == [e.age for e in want]
        else:
            received, sent_ids = op[1], op[2]
            new.merge_received(
                [nid for nid, _ in received], [age for _, age in received], sent_ids
            )
            ref.merge_received(
                [ViewEntry(nid, age) for nid, age in received],
                sent=[ViewEntry(nid) for nid in sent_ids],
            )
        assert new.state_list() == ref.state_list()
        assert new.ids() == ref.ids() and len(new) == len(ref)
        assert new.ages() == [e.age for e in ref.entries()]
        assert [new.age_of(n) for n in range(16)] == [
            None if ref.get(n) is None else ref.get(n).age for n in range(16)
        ]
        assert new.is_full == ref.is_full
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
    """Every view of either implementation as ``[node_id, age]`` pairs
    (the oracle's ``state_dict``; the overlay's own is packed columns)."""
    return {str(nid): view.state_list() for nid, view in overlay._views.items()}


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
            view_lists(self.overlay),
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
