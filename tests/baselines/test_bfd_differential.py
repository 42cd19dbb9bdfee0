"""Differential: ``bfd_pack`` vs the scan it replaced.

``bfd_pack`` is the parent's every-item-scans-every-bin best fit with
the per-item wrappers, slicing and boxing taken out (DESIGN.md §5g).
``tests/baselines/_reference_bfd.py`` keeps the version it replaced; the
two must return the same bins with the same order inside each bin on
every demand set — CPU-bound, memory-bound, mixed, all-zero, exact ties,
items larger than a bin.

Two mutants of the selection rule must be *caught* by the same corpus,
so the suite is known to see the bugs it exists for:

* a bin whose residual equals the item no longer fits (``>`` for ``>=``);
* the slack forgets the memory term (best fit on CPU alone).
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.baselines.bfd as bfd_module
from repro.baselines.bfd import bfd_pack
from tests.baselines._reference_bfd import reference_bfd_pack

CAP = np.array([10.0, 8.0])

#: Grid values make exact ties (equal sizes, equal slacks, residual ==
#: item) and zero / oversize demands common instead of measure-zero.
GRID = (0.0, 0.5, 1.0, 2.0, 2.5, 4.0, 5.0, 8.0, 10.0, 12.0)

SHAPES = ("mixed", "cpu_bound", "mem_bound", "grid", "zeros", "small_tail")


def demand_set(shape: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if shape == "mixed":
        return rng.uniform(0.0, 6.0, size=(n, 2))
    if shape == "cpu_bound":
        return rng.uniform(0.0, 6.0, size=(n, 2)) * np.array([1.0, 0.05])
    if shape == "mem_bound":
        return rng.uniform(0.0, 6.0, size=(n, 2)) * np.array([0.05, 1.0])
    if shape == "grid":
        return rng.choice(GRID, size=(n, 2))
    if shape == "zeros":
        return np.zeros((n, 2))
    # Big items first, then a long tail of small ones that keep fitting
    # bins opened long ago.
    big = rng.uniform(3.0, 7.0, size=(n // 3, 2))
    small = rng.uniform(0.0, 1.5, size=(n - n // 3, 2))
    return np.concatenate([big, small])


def corpus(sets_per_shape: int, max_items: int):
    for k, shape in enumerate(SHAPES):
        for seed in range(sets_per_shape):
            n = 1 + (seed * 37 + k * 11) % max_items
            yield demand_set(shape, n, seed)


@st.composite
def demand_sets(draw):
    shape = draw(st.sampled_from(SHAPES))
    n = draw(st.integers(min_value=1, max_value=150))
    return demand_set(shape, n, draw(st.integers(0, 2**31 - 1)))


class TestMatchesReference:
    @given(demand_sets())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_same_bins_same_order(self, demands):
        assert bfd_pack(demands, CAP) == reference_bfd_pack(demands, CAP)

    @pytest.mark.slow
    @given(demand_sets())
    @settings(max_examples=1500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_same_bins_same_order_deep(self, demands):
        assert bfd_pack(demands, CAP) == reference_bfd_pack(demands, CAP)

    def test_fixed_corpus(self):
        for demands in corpus(sets_per_shape=25, max_items=160):
            assert bfd_pack(demands, CAP) == reference_bfd_pack(demands, CAP)

    def test_residual_equal_to_item_fits(self):
        # 6 + 4 fills a bin exactly; the 4s must close the bins the 6s
        # opened, lowest index first.
        demands = np.array([[6.0, 1.0], [6.0, 1.0], [4.0, 1.0], [4.0, 1.0]])
        assert bfd_pack(demands, CAP) == reference_bfd_pack(demands, CAP) == [[0, 2], [1, 3]]

    def test_oversize_items_get_their_own_bins(self):
        demands = np.array([[12.0, 1.0], [1.0, 9.0], [2.0, 2.0], [2.0, 2.0]])
        bins = bfd_pack(demands, CAP)
        assert bins == reference_bfd_pack(demands, CAP)
        assert [0] in bins and [1] in bins


FITS_CPU = "        fits = r0 >= i0\n"
SLACK_MEMORY = "            slack += (r1[cand] - i1) / c1\n"


def mutant(edit):
    """``bfd_pack`` recompiled from its source after ``edit(source)``."""
    source = inspect.getsource(bfd_pack)
    edited = edit(source)
    assert edited != source, "the mutation no longer applies: update the test"
    namespace = dict(vars(bfd_module))
    exec(compile(edited, "<bfd_pack mutant>", "exec"), namespace)
    return namespace["bfd_pack"]


def residual_equal_to_item_does_not_fit(source: str) -> str:
    assert source.count(FITS_CPU) == 1
    return source.replace(FITS_CPU, FITS_CPU.replace(">=", ">"))


def slack_forgets_memory(source: str) -> str:
    assert source.count(SLACK_MEMORY) == 1
    return source.replace(SLACK_MEMORY, "")


class TestMutantsAreCaught:
    def test_unmutated_source_round_trips(self):
        same = mutant(lambda source: source + "\n")
        for demands in corpus(sets_per_shape=5, max_items=80):
            assert same(demands, CAP) == reference_bfd_pack(demands, CAP)

    @pytest.mark.parametrize(
        "edit", [residual_equal_to_item_does_not_fit, slack_forgets_memory]
    )
    def test_mutant_diverges_on_the_corpus(self, edit):
        broken = mutant(edit)
        assert any(
            broken(demands, CAP) != reference_bfd_pack(demands, CAP)
            for demands in corpus(sets_per_shape=25, max_items=160)
        )
