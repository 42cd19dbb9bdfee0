"""Aliasing regression tests for the shared Q-map storage.

``QTable`` hands the *same* arrays to several holders (``copy``,
``copy_from``, ``partition(1, 0)``, ``merge_qtables``, a merge/absorb
into an empty or key-identical table, the ``pretrained`` fan-out of
``GlapPolicy.attach`` and ``export_model``) and promises copy-on-write.
For every sharing site and every kind of write, a write through one
holder must never change what any other holder reads.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.aggregation import merge_qtables
from repro.core.glap import GlapPolicy
from repro.core.qlearning import QLearningModel
from repro.core.qtable import QTable
from repro.util.rng import RngStreams
from tests.conftest import make_datacenter, make_simulation


def _table(offset: float = 0.0) -> QTable:
    q = QTable()
    for i, (state, action) in enumerate([(0, 0), (0, 5), (3, 1), (40, 40), (80, 80)]):
        q.set(state, action, offset + i)
    return q


def _hex(table: QTable):
    return {key: float(value).hex() for key, value in table.items()}


# -- sharing sites: (name, build) -> (holder_a, holder_b) sharing storage ------


def _by_copy():
    a = _table()
    return a, a.copy()


def _by_copy_from():
    a, b = _table(), _table(100.0)
    b.copy_from(a)
    return a, b


def _by_full_partition():
    a = _table()
    return a, a.partition(1, 0)


def _by_merge_qtables():
    a, b = _table(), _table(100.0)
    b.set(7, 7, -3.0)
    merge_qtables(a, b)
    return a, b


def _by_merge_into_empty():
    a, b = QTable(), _table()
    a.merge(b)
    return a, b


def _by_absorb_identical_keys():
    a, b = _table(), _table(100.0)
    a.absorb(b)
    return a, b


def _by_model_copy():
    model = QLearningModel()
    model.q_out = _table()
    return model.q_out, model.copy().q_out


SHARING_SITES = [
    _by_copy, _by_copy_from, _by_full_partition, _by_merge_qtables,
    _by_merge_into_empty, _by_absorb_identical_keys, _by_model_copy,
]

# -- writes --------------------------------------------------------------------


def _patch() -> QTable:
    patch = QTable()
    patch.set(0, 5, 77.0)   # existing key
    patch.set(9, 9, 78.0)   # new key
    return patch


def _subset_patch() -> QTable:
    patch = QTable()
    patch.set(3, 1, 55.0)   # existing keys only: the in-place fold path
    return patch


WRITES = {
    "set-existing": lambda q: q.set(3, 1, -42.0),
    "set-new": lambda q: q.set(12, 12, -42.0),
    "update-existing": lambda q: q.update(0, 0, 1.0, 3, alpha=0.5, gamma=0.5),
    "update-new": lambda q: q.update(50, 2, 1.0, 3, alpha=0.5, gamma=0.5),
    "merge-subset": lambda q: q.merge(_subset_patch()),
    "merge-union": lambda q: q.merge(_patch()),
    "absorb-subset": lambda q: q.absorb(_subset_patch()),
    "absorb-union": lambda q: q.absorb(_patch()),
    "copy_from": lambda q: q.copy_from(_table(500.0)),
}


@pytest.mark.parametrize("write", WRITES.values(), ids=WRITES.keys())
@pytest.mark.parametrize("site", SHARING_SITES, ids=lambda f: f.__name__.lstrip("_"))
def test_write_through_one_holder_never_reaches_the_other(site, write):
    for writer_index in (0, 1):
        holders = site()
        assert _hex(holders[0]) == _hex(holders[1])
        # The site must really share, or this test proves nothing.
        assert np.shares_memory(holders[0].packed()[1], holders[1].packed()[1])
        writer, other = holders[writer_index], holders[1 - writer_index]
        before = _hex(other)
        write(writer)
        assert _hex(writer) != before
        assert _hex(other) == before
        # The other holder is still writable on its own: the same write
        # on the same content lands on the same result.
        write(other)
        assert _hex(other) == _hex(writer)


def test_second_write_after_copy_on_write_stays_private():
    a = _table()
    b = a.copy()
    b.set(0, 0, 10.0)  # b un-shares
    c = b.copy()       # b shares again, with c
    b.set(0, 0, 20.0)
    assert (a.get(0, 0), b.get(0, 0), c.get(0, 0)) == (0.0, 20.0, 10.0)


def test_packed_views_are_read_only():
    keys, vals = _table().packed()
    with pytest.raises(ValueError):
        vals[0] = 1.0
    with pytest.raises(ValueError):
        keys[0] = 1


def test_merge_qtables_chain_keeps_every_endpoint_independent():
    """a-b then b-c: all three end on shared arrays; training one of them
    (Algorithm 1 resumes after aggregation in pretrained runs) must
    leave the other two alone."""
    a, b, c = _table(), _table(10.0), _table(20.0)
    merge_qtables(a, b)
    merge_qtables(b, c)
    assert _hex(b) == _hex(c)
    snapshot_a, snapshot_c = _hex(a), _hex(c)
    b.update(0, 0, 5.0, 0, alpha=0.5, gamma=0.9)
    b.set(1, 1, 1.0)
    assert _hex(a) == snapshot_a
    assert _hex(c) == snapshot_c


def _attached(pretrained: QLearningModel):
    dc = make_datacenter(n_pms=8, n_vms=24, n_rounds=120, advance=False)
    sim = make_simulation(dc, seed=5)
    policy = GlapPolicy(pretrained=pretrained)
    policy.attach(dc, sim, RngStreams(5), 40)
    return policy


def test_pretrained_fan_out_shares_until_a_pm_trains():
    pretrained = QLearningModel()
    pretrained.q_out = _table()
    pretrained.q_in = _table(50.0)
    policy = _attached(pretrained)
    seed_out, seed_in = _hex(pretrained.q_out), _hex(pretrained.q_in)
    models = list(policy.models.values())
    assert all(_hex(m.q_out) == seed_out and _hex(m.q_in) == seed_in for m in models)
    # One PM trains: nobody else, and not the caller's model, may see it.
    models[0].update_out(0, 0, 3)
    models[0].update_in(77, 7, 3)
    models[0].q_out.set(3, 1, -9.0)
    assert _hex(models[0].q_out) != seed_out
    assert _hex(pretrained.q_out) == seed_out and _hex(pretrained.q_in) == seed_in
    for other in models[1:]:
        assert _hex(other.q_out) == seed_out and _hex(other.q_in) == seed_in
    # ... and the caller writing to its model afterwards reaches no PM.
    pretrained.q_out.set(0, 0, 1234.0)
    assert all(_hex(m.q_out) == seed_out for m in models[1:])


def test_export_model_is_detached_both_ways():
    pretrained = QLearningModel()
    pretrained.q_out = _table()
    policy = _attached(pretrained)
    exported = policy.export_model()
    first = next(iter(policy.models.values()))
    before = _hex(first.q_out)
    exported.q_out.set(0, 0, -1.0)
    exported.update_out(5, 5, 6)
    assert _hex(first.q_out) == before
    snapshot = _hex(exported.q_out)
    first.q_out.set(0, 5, 99.0)
    first.update_out(0, 0, 3)
    assert _hex(exported.q_out) == snapshot
