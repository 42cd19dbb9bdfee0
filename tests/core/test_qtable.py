"""Tests for repro.core.qtable — update rule and gossip merge."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.qtable import QTable

values = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
keys = st.tuples(st.integers(0, 80), st.integers(0, 80))


class TestBasics:
    def test_unknown_defaults_to_zero(self):
        q = QTable()
        assert q.get(1, 2) == 0.0
        assert q.get(1, 2, default=-5.0) == -5.0
        assert not q.has(1, 2)

    def test_set_get(self):
        q = QTable()
        q.set(3, 4, 1.5)
        assert q.get(3, 4) == 1.5 and q.has(3, 4)
        assert len(q) == 1

    def test_key_bounds_checked(self):
        q = QTable()
        with pytest.raises(ValueError):
            q.set(81, 0, 1.0)
        with pytest.raises(ValueError):
            q.set(0, -1, 1.0)

    def test_items_and_keys(self):
        q = QTable()
        q.set(1, 2, 0.5)
        q.set(1, 3, 0.7)
        assert dict(q.items()) == {(1, 2): 0.5, (1, 3): 0.7}
        assert sorted(q.keys()) == [(1, 2), (1, 3)]
        assert q.states() == [1]

    def test_copy_independent(self):
        q = QTable()
        q.set(0, 0, 1.0)
        c = q.copy()
        c.set(0, 0, 2.0)
        assert q.get(0, 0) == 1.0

    def test_to_vector(self):
        q = QTable()
        q.set(1, 1, 3.0)
        vec = q.to_vector([(1, 1), (2, 2)])
        np.testing.assert_array_equal(vec, [3.0, 0.0])


class TestOutOfRangeKeys:
    """With flat key codes a negative index would wrap from the end and
    ``(0, 81)`` would alias ``(1, 0)``: out-of-range pairs are simply
    never present, and writes to them raise, as with the dict backing."""

    # (-1, *) / (*, -1) wrap; (81, *) overruns; (0, 81) has (1, 0)'s code.
    BAD_KEYS = [(-1, 0), (0, -1), (81, 0), (0, 81), (80, 81), (-1, -1)]

    def _table(self):
        q = QTable()
        q.set(0, 0, 1.0)
        q.set(0, 80, 2.0)
        q.set(1, 0, 3.0)   # code 81: what (0, 81) would alias
        q.set(80, 80, 4.0)  # last code: what index -1 would wrap to
        return q

    @pytest.mark.parametrize("state,action", BAD_KEYS)
    def test_reads_see_nothing(self, state, action):
        q = self._table()
        assert q.get(state, action) == 0.0
        assert q.get(state, action, default=-7.0) == -7.0
        assert not q.has(state, action)

    @pytest.mark.parametrize("state", [-1, 81])
    def test_unknown_state_aggregates(self, state):
        q = self._table()
        assert q.max_value(state) == 0.0
        assert q.best_action(state) is None
        assert q.best_action(state, candidates=[]) is None
        # Candidates of an unknown state all score 0.0: lowest code wins.
        assert q.best_action(state, candidates=[5, 0, 3]) == 0

    def test_out_of_range_candidate_scores_zero_not_its_alias(self):
        q = QTable()
        q.set(0, 2, -1.0)
        q.set(1, 0, 9.0)  # (0, 81) must not borrow this 9.0
        assert q.best_action(0, candidates=[2, 81]) == 81  # 0.0 beats -1.0
        q.set(0, 2, 1.0)
        assert q.best_action(0, candidates=[2, 81]) == 2

    @pytest.mark.parametrize("state,action", BAD_KEYS)
    def test_writes_raise_and_change_nothing(self, state, action):
        q = self._table()
        before = dict(q.items())
        with pytest.raises(ValueError):
            q.set(state, action, 5.0)
        with pytest.raises(ValueError):
            q.update(state, action, 1.0, 0, alpha=0.5, gamma=0.5)
        assert dict(q.items()) == before

    @pytest.mark.parametrize("next_state", [-1, 81])
    def test_update_toward_out_of_range_next_state_sees_no_future(self, next_state):
        q = self._table()
        new = q.update(0, 0, reward=1.0, next_state=next_state, alpha=1.0, gamma=1.0)
        assert new == 1.0

    def test_from_dict_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            QTable.from_dict({"0": {"81": 1.0}})
        with pytest.raises(ValueError):
            QTable.from_dict({"-1": {"0": 1.0}})


class TestMaxValueAndBestAction:
    def test_max_value_unknown_state_zero(self):
        assert QTable().max_value(5) == 0.0

    def test_max_value(self):
        q = QTable()
        q.set(5, 1, -2.0)
        q.set(5, 2, 7.0)
        assert q.max_value(5) == 7.0

    def test_best_action_over_known(self):
        q = QTable()
        q.set(5, 1, 1.0)
        q.set(5, 2, 3.0)
        assert q.best_action(5) == 2

    def test_best_action_unknown_state_none(self):
        assert QTable().best_action(5) is None

    def test_best_action_with_candidates_treats_unknown_as_zero(self):
        q = QTable()
        q.set(5, 1, -1.0)
        # Candidate 9 is unknown (0.0) and beats the known -1.0.
        assert q.best_action(5, candidates=[1, 9]) == 9

    def test_best_action_empty_candidates_none(self):
        assert QTable().best_action(5, candidates=[]) is None

    def test_best_action_ties_break_to_lowest_action(self):
        q = QTable()
        q.set(5, 7, 2.0)
        q.set(5, 3, 2.0)
        assert q.best_action(5) == 3
        assert q.best_action(5, candidates=[7, 3]) == 3


class TestUpdate:
    def test_paper_formula(self):
        # Q' = (1-a)Q + a(R + g max Q(s'))
        q = QTable()
        q.set(0, 0, 10.0)
        q.set(1, 0, 4.0)  # max over s'=1 is 4
        new = q.update(0, 0, reward=2.0, next_state=1, alpha=0.5, gamma=0.9)
        assert new == pytest.approx(0.5 * 10.0 + 0.5 * (2.0 + 0.9 * 4.0))
        assert q.get(0, 0) == new

    def test_update_from_unknown_starts_at_zero(self):
        q = QTable()
        new = q.update(0, 0, reward=1.0, next_state=1, alpha=0.5, gamma=0.0)
        assert new == pytest.approx(0.5)

    def test_gamma_zero_ignores_future(self):
        q = QTable()
        q.set(1, 0, 100.0)
        new = q.update(0, 0, reward=1.0, next_state=1, alpha=1.0, gamma=0.0)
        assert new == pytest.approx(1.0)

    def test_alpha_one_is_deterministic_overwrite(self):
        # Paper: alpha=1 "only considers the latest value".
        q = QTable()
        q.set(0, 0, 50.0)
        new = q.update(0, 0, reward=3.0, next_state=1, alpha=1.0, gamma=0.0)
        assert new == pytest.approx(3.0)

    def test_invalid_alpha_gamma(self):
        q = QTable()
        with pytest.raises(ValueError):
            q.update(0, 0, 1.0, 1, alpha=1.5, gamma=0.5)
        with pytest.raises(ValueError):
            q.update(0, 0, 1.0, 1, alpha=0.5, gamma=-0.1)

    def test_repeated_updates_converge_to_fixed_point(self):
        # With a fixed reward and terminal next state, Q -> R/(1 - g*[s'=s]).
        q = QTable()
        for _ in range(200):
            q.update(0, 0, reward=5.0, next_state=1, alpha=0.3, gamma=0.8)
        assert q.get(0, 0) == pytest.approx(5.0, abs=1e-6)


class TestUpdateMany:
    """A batch equals the same updates applied one at a time, in order."""

    def _one_by_one(self, q, transitions, alpha, gamma):
        out = []
        for s, a, r, nxt in transitions:
            old = q.get(s, a)
            out.append((old, q.update(s, a, r, nxt, alpha, gamma)))
        return out

    def test_reserved_slot_is_unknown_until_its_own_transition_writes_it(self):
        # (0, 1) is new and written by the *second* transition.  The
        # first looks ahead into state 0: it must see only the old
        # (0, 5) = -2, not a zero-valued placeholder for (0, 1) — and
        # with (0, 5) itself rewritten by the third, order matters.
        transitions = [
            (3, 3, 1.0, 0),    # max over state 0 == -2.0, not 0.0
            (0, 1, 4.0, 7),    # writes the reserved slot
            (0, 5, 1.0, 0),    # now sees (0, 1)
            (3, 3, 1.0, 0),    # sees both, and its own earlier write
            (9, 9, 1.0, 9),    # next state == own state, slot still reserved
        ]
        batch, single = QTable(), QTable()
        for q in (batch, single):
            q.set(0, 5, -2.0)
        got = batch.update_many(transitions, alpha=0.5, gamma=0.9)
        want = self._one_by_one(single, transitions, 0.5, 0.9)
        assert [(o.hex(), n.hex()) for o, n in got] == [(o.hex(), n.hex()) for o, n in want]
        assert dict(batch.items()) == dict(single.items())
        assert got[0] == (0.0, 0.5 * (1.0 + 0.9 * -2.0))

    def test_batch_of_only_known_pairs_and_empty_batch(self):
        batch, single = QTable(), QTable()
        for q in (batch, single):
            q.set(1, 1, 2.0)
            q.set(2, 2, 3.0)
        transitions = [(1, 1, 1.0, 2), (2, 2, -1.0, 1), (1, 1, 0.5, 1)]
        assert batch.update_many(transitions, 0.3, 0.8) == self._one_by_one(
            single, transitions, 0.3, 0.8)
        assert dict(batch.items()) == dict(single.items())
        assert batch.update_many([], 0.3, 0.8) == []
        assert dict(batch.items()) == dict(single.items())

    def test_one_bad_key_rejects_the_whole_batch_untouched(self):
        q = QTable()
        q.set(1, 1, 2.0)
        with pytest.raises(ValueError):
            q.update_many([(1, 1, 1.0, 2), (0, 81, 1.0, 0)], 0.5, 0.5)
        with pytest.raises(ValueError):
            q.update_many([(1, 1, 1.0, 2)], alpha=float("nan"), gamma=0.5)
        assert dict(q.items()) == {(1, 1): 2.0}


class TestMerge:
    def test_average_where_both(self):
        a, b = QTable(), QTable()
        a.set(0, 0, 2.0)
        b.set(0, 0, 4.0)
        a.merge(b)
        assert a.get(0, 0) == 3.0

    def test_adopt_where_only_other(self):
        a, b = QTable(), QTable()
        b.set(1, 1, 7.0)
        a.merge(b)
        assert a.get(1, 1) == 7.0

    def test_keep_where_only_self(self):
        a, b = QTable(), QTable()
        a.set(2, 2, 9.0)
        a.merge(b)
        assert a.get(2, 2) == 9.0

    def test_merge_does_not_mutate_other(self):
        a, b = QTable(), QTable()
        a.set(0, 0, 2.0)
        b.set(0, 0, 4.0)
        a.merge(b)
        assert b.get(0, 0) == 4.0

    @given(
        st.dictionaries(keys, values, max_size=12),
        st.dictionaries(keys, values, max_size=12),
    )
    @settings(max_examples=60)
    def test_property_merge_key_union(self, da, db):
        a, b = QTable(), QTable()
        for (s, act), v in da.items():
            a.set(s, act, v)
        for (s, act), v in db.items():
            b.set(s, act, v)
        a.merge(b)
        assert set(a.keys()) == set(da) | set(db)

    @given(
        st.dictionaries(keys, values, max_size=12),
        st.dictionaries(keys, values, max_size=12),
    )
    @settings(max_examples=60)
    def test_property_merge_values_within_hull(self, da, db):
        # Every merged value lies between the two inputs (mean or copy).
        a, b = QTable(), QTable()
        for (s, act), v in da.items():
            a.set(s, act, v)
        for (s, act), v in db.items():
            b.set(s, act, v)
        a.merge(b)
        for key in set(da) | set(db):
            lo = min(da.get(key, db.get(key)), db.get(key, da.get(key)))
            hi = max(da.get(key, db.get(key)), db.get(key, da.get(key)))
            assert lo - 1e-9 <= a.get(*key) <= hi + 1e-9


class TestPartitioning:
    def _table(self, n=30, seed=0):
        rng = np.random.default_rng(seed)
        q = QTable()
        for _ in range(n):
            q.set(int(rng.integers(81)), int(rng.integers(81)),
                  float(rng.normal()))
        return q

    def test_partitions_are_disjoint_and_cover(self):
        q = self._table()
        k = 4
        seen = {}
        for bucket in range(k):
            for key, value in q.partition(k, bucket).items():
                assert key not in seen, f"{key} in two buckets"
                seen[key] = value
        assert seen == dict(q.items())

    def test_single_bucket_is_full_copy(self):
        q = self._table()
        clone = q.partition(1, 0)
        assert dict(clone.items()) == dict(q.items())
        clone.set(0, 0, 99.0)
        assert q.get(0, 0) != 99.0 or len(q) != len(clone)  # independent

    def test_bucket_assignment_is_stable(self):
        # The hash is pure integer maths — same bucket in any process.
        assert QTable.bucket_of(3, 7, 4) == QTable.bucket_of(3, 7, 4)
        for s in range(10):
            for a in range(10):
                assert 0 <= QTable.bucket_of(s, a, 5) < 5

    def test_bucket_len_matches_partition(self):
        q = self._table()
        for k in (1, 3, 8):
            for bucket in range(k):
                assert q.bucket_len(k, bucket) == len(q.partition(k, bucket))

    def test_absorb_overwrites_and_adds(self):
        q = self._table()
        patch = QTable()
        some_state, some_action = next(iter(q.keys()))
        patch.set(some_state, some_action, 123.0)
        patch.set(80, 80, -5.0)
        before = len(q)
        had_new = not q.has(80, 80)
        q.absorb(patch)
        assert q.get(some_state, some_action) == 123.0
        assert q.get(80, 80) == -5.0
        if had_new:
            assert len(q) == before + 1

    def test_absorb_of_merged_partition_equals_full_merge_on_bucket(self):
        # Partition -> merge -> absorb leaves the bucket's keys exactly
        # as a full-table merge would, and other buckets untouched.
        a, b = self._table(seed=1), self._table(seed=2)
        a_ref, b_ref = a.copy(), b.copy()
        k, bucket = 3, 1
        sa, sb = a.partition(k, bucket), b.partition(k, bucket)
        sa.merge(sb)
        sb.copy_from(sa)
        a.absorb(sa)
        b.absorb(sb)
        a_ref.merge(b_ref)
        for key in set(a.keys()) | set(a_ref.keys()):
            s, act = key
            if QTable.bucket_of(s, act, k) == bucket:
                assert a.get(s, act) == a_ref.get(s, act)
                assert b.get(s, act) == a_ref.get(s, act)

    def test_invalid_arguments_rejected(self):
        q = self._table()
        with pytest.raises(ValueError):
            q.partition(0, 0)
        with pytest.raises(ValueError):
            q.partition(4, 4)
        with pytest.raises(ValueError):
            q.partition(4, -1)
