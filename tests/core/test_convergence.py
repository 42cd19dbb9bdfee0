"""Tests for repro.core.convergence — similarity instrumentation and the
Theorem 1 (gossip averaging CLT) empirical check."""

import numpy as np
import pytest

from repro.core.convergence import mean_pairwise_cosine, qvalue_matrix
from repro.core.qlearning import QLearningModel


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    """One pair's cosine by definition: two all-zero rows agree (1.0), an
    all-zero row against a non-zero one does not (0.0)."""
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return float(na == nb)
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


def model_with(out_entries=(), in_entries=()):
    m = QLearningModel()
    for s, a, v in out_entries:
        m.q_out.set(s, a, v)
    for s, a, v in in_entries:
        m.q_in.set(s, a, v)
    return m


class TestQValueMatrix:
    def test_union_key_columns(self):
        a = model_with(out_entries=[(0, 0, 1.0)])
        b = model_with(out_entries=[(1, 1, 2.0)])
        mat = qvalue_matrix([a, b])
        assert mat.shape == (2, 2)
        # Unknown entries are 0.
        assert sorted(mat[0].tolist()) == [0.0, 1.0]
        assert sorted(mat[1].tolist()) == [0.0, 2.0]

    def test_in_and_out_kept_separate(self):
        a = model_with(out_entries=[(0, 0, 1.0)], in_entries=[(0, 0, -1.0)])
        mat = qvalue_matrix([a])
        assert mat.shape == (1, 2)
        assert sorted(mat[0].tolist()) == [-1.0, 1.0]

    def test_empty_models(self):
        mat = qvalue_matrix([QLearningModel(), QLearningModel()])
        assert mat.shape == (2, 0)

    def test_no_models_rejected(self):
        with pytest.raises(ValueError):
            qvalue_matrix([])


def reference_matrix(models):
    """The matrix by its definition, one ``get`` per cell: columns are
    the union keys ordered ("in", s, a) then ("out", s, a)."""
    keys = sorted(
        {("in", s, a) for m in models for s, a in m.q_in.keys()}
        | {("out", s, a) for m in models for s, a in m.q_out.keys()}
    )
    mat = np.zeros((len(models), len(keys)))
    for i, m in enumerate(models):
        for j, (name, s, a) in enumerate(keys):
            mat[i, j] = (m.q_in if name == "in" else m.q_out).get(s, a)
    return mat


class TestMatrixFromPackedArraysMatchesDefinition:
    def _population(self, seed):
        rng = np.random.default_rng(seed)
        models = []
        for _ in range(9):
            m = QLearningModel()
            for table in (m.q_out, m.q_in):
                for _ in range(int(rng.integers(0, 25))):
                    table.set(int(rng.integers(6)), int(rng.integers(81)),
                              float(rng.normal()))
            models.append(m)
        models[1] = QLearningModel()            # trained nothing
        models[2].q_in.set(0, 0, -0.0)          # sign of zero must survive
        models[3] = models[0].copy()            # shares storage with [0]
        models[4].q_out.copy_from(models[5].q_out)
        return models

    @pytest.mark.parametrize("seed", range(5))
    def test_bit_identical_columns_and_values(self, seed):
        models = self._population(seed)
        got, want = qvalue_matrix(models), reference_matrix(models)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_pairwise_cosine_equals_cosine_of_reference_rows(self):
        models = self._population(11)
        want = reference_matrix(models)
        pairs = [(i, j) for i in range(len(models)) for j in range(i + 1, len(models))]
        expected = np.mean([_cosine(want[i], want[j]) for i, j in pairs])
        assert mean_pairwise_cosine(models) == pytest.approx(expected, abs=1e-12)


class TestMeanPairwiseCosine:
    def test_identical_models_are_one(self):
        a = model_with(out_entries=[(0, 0, 1.0), (1, 1, 2.0)])
        b = a.copy()
        assert mean_pairwise_cosine([a, b]) == pytest.approx(1.0)

    def test_single_model_is_one(self):
        assert mean_pairwise_cosine([QLearningModel()]) == 1.0

    def test_empty_models_are_one(self):
        assert mean_pairwise_cosine([QLearningModel(), QLearningModel()]) == 1.0

    def test_disjoint_knowledge_is_zero(self):
        a = model_with(out_entries=[(0, 0, 1.0)])
        b = model_with(out_entries=[(1, 1, 1.0)])
        assert mean_pairwise_cosine([a, b]) == pytest.approx(0.0)

    def test_sampling_close_to_exact(self):
        rng = np.random.default_rng(0)
        models = []
        for _ in range(40):
            m = QLearningModel()
            for _ in range(6):
                m.q_out.set(int(rng.integers(81)), int(rng.integers(81)),
                            float(rng.normal(loc=1.0)))
            models.append(m)
        exact = mean_pairwise_cosine(models, max_pairs=10**9)
        sampled = mean_pairwise_cosine(models, rng=np.random.default_rng(1),
                                       max_pairs=200)
        assert sampled == pytest.approx(exact, abs=0.1)


class TestTheorem1:
    def test_gossip_averaging_concentrates_to_population_mean(self):
        """Empirical Theorem 1: repeated pairwise averaging of independent
        initial values converges, per node, to the population mean with
        shrinking variance (the CLT-style argument of section IV-C)."""
        rng = np.random.default_rng(0)
        n = 64
        values = rng.exponential(scale=2.0, size=n)  # decidedly non-normal
        target = values.mean()
        x = values.copy()
        for _ in range(30):  # rounds of random pairwise averaging
            order = rng.permutation(n)
            for i in range(0, n - 1, 2):
                a, b = order[i], order[i + 1]
                mean = 0.5 * (x[a] + x[b])
                x[a] = x[b] = mean
        assert x.mean() == pytest.approx(target)  # mass conservation
        assert x.std() < 0.05 * values.std()  # concentration


class _ScriptedRng:
    """Stands in for a Generator: replays fixed integer draws."""

    def __init__(self, arrays):
        self._arrays = [np.asarray(a) for a in arrays]

    def integers(self, low, high, size):
        out = self._arrays.pop(0)
        assert out.size == size
        return out


class TestSampledPairDeduplication:
    """Regression: the sampler drew pairs with replacement and never
    canonicalised (i, j) vs (j, i), so one pair could be averaged in
    multiple times and bias the estimate."""

    def _distinct_models(self, n):
        # A shared key plus a per-model key of growing weight: every
        # unordered pair has a different similarity, so any duplicated
        # pair shifts the mean detectably.
        models = []
        for i in range(n):
            m = model_with(
                out_entries=[(0, 0, 1.0), (i + 1, i + 1, float(i + 1))]
            )
            models.append(m)
        return models

    def test_duplicate_and_mirrored_draws_collapse(self):
        models = self._distinct_models(5)  # 10 pairs > max_pairs=3
        # Draws contain (0,1), its mirror (1,0), a self-pair (2,2) and a
        # repeat of (0,1): only {0,1}, {3,4}, {0,2} must survive, in
        # first-draw order.
        rng = _ScriptedRng([
            [0, 1, 2, 0, 3, 0],
            [1, 0, 2, 1, 4, 2],
        ])
        got = mean_pairwise_cosine(models, rng=rng, max_pairs=3)
        expected = np.mean([
            mean_pairwise_cosine([models[0], models[1]]),
            mean_pairwise_cosine([models[3], models[4]]),
            mean_pairwise_cosine([models[0], models[2]]),
        ])
        assert got == pytest.approx(float(expected))

    def test_no_duplicate_unordered_pairs_in_low_budget_sample(self):
        # With max_pairs far below the population's pair count, the
        # estimate must equal a mean over *some* set of distinct
        # unordered pairs — verified against every multiset that
        # contains a duplicate: duplicates pull the estimate off the
        # attainable values whenever the pair similarities differ.
        models = self._distinct_models(8)
        sampled = mean_pairwise_cosine(
            models, rng=np.random.default_rng(3), max_pairs=4
        )
        pair_sims = {}
        for i in range(8):
            for j in range(i + 1, 8):
                pair_sims[(i, j)] = mean_pairwise_cosine(
                    [models[i], models[j]]
                )
        from itertools import combinations

        attainable = [
            float(np.mean(vals))
            for size in (1, 2, 3, 4)  # dedup may leave fewer than max_pairs
            for vals in combinations(pair_sims.values(), size)
        ]
        assert any(
            sampled == pytest.approx(a, abs=1e-9) for a in attainable
        )

    def test_sampled_estimate_is_deterministic(self):
        models = self._distinct_models(10)
        a = mean_pairwise_cosine(models, rng=np.random.default_rng(7),
                                 max_pairs=5)
        b = mean_pairwise_cosine(models, rng=np.random.default_rng(7),
                                 max_pairs=5)
        assert a == b
