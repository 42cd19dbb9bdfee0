"""Differential: ``bfd_pack`` vs the scan of every open bin.

``bfd_pack`` answers "least slack among the bins that fit" from an index
over open-bin residuals (DESIGN.md §5g): a short fitting suffix of the
binding-resource list is scored in place, an idle item walks the other
resource's list with an early exit, and what neither list discriminates
falls back to the whole-array scan.  ``tests/baselines/_reference_bfd.py``
scans every open bin for every item; the two must return the same bins
with the same order inside each bin on every demand set — CPU-bound,
memory-bound, mixed, trace-like, all-zero, exact ties, items larger than
a bin, and the column-swapped twin of each (the other resource binds) —
from a handful of items to thousands with hundreds of bins open, so all
three paths run.

Five mutants must be *caught* by the same corpus, so the suite is known
to see the bugs it exists for, on every path:

* fallback: a bin whose residual equals the item no longer fits (``>``
  for ``>=``); the slack forgets the memory term;
* other-resource walk: the early exit leaves on ``>=`` and drops a
  lower-indexed tie;
* suffix: the winner's old entry stays in the index after a placement;
  the lowest-index tie-break is gone.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import bfd
from repro.baselines.bfd import _CHUNK, bfd_pack
from tests._mutants import mutant_module, replace_once
from tests._traced import traced_peak
from tests.baselines._reference_bfd import reference_bfd_pack
from tests.baselines._scale_cell import end_of_run

CAP = np.array([10.0, 8.0])

#: Grid values make exact ties (equal sizes, equal slacks, residual ==
#: item) and zero / oversize demands common instead of measure-zero.
GRID = (0.0, 0.5, 1.0, 2.0, 2.5, 4.0, 5.0, 8.0, 10.0, 12.0)

BASE_SHAPES = (
    "mixed", "cpu_bound", "mem_bound", "grid", "eighths", "zeros", "small_tail", "trace_like",
)
#: ``<shape>_swapped`` is the same set with its columns exchanged.
SHAPES = BASE_SHAPES + tuple(f"{shape}_swapped" for shape in BASE_SHAPES)


def demand_set(shape: str, n: int, seed: int) -> np.ndarray:
    if shape.endswith("_swapped"):
        return demand_set(shape[: -len("_swapped")], n, seed)[:, ::-1]
    rng = np.random.default_rng(seed)
    if shape == "mixed":
        return rng.uniform(0.0, 6.0, size=(n, 2))
    if shape == "cpu_bound":
        return rng.uniform(0.0, 6.0, size=(n, 2)) * np.array([1.0, 0.05])
    if shape == "mem_bound":
        return rng.uniform(0.0, 6.0, size=(n, 2)) * np.array([0.05, 1.0])
    if shape == "grid":
        return rng.choice(GRID, size=(n, 2))
    if shape == "eighths":
        # Eighths of a bin are exact in binary, so different (CPU, memory)
        # residual pairs tie on slack and many bins end exactly full.
        return rng.choice((0, 0, 1, 1, 2, 3, 4, 5), size=(n, 2)) * (CAP / 8)
    if shape == "zeros":
        return np.zeros((n, 2))
    if shape == "trace_like":
        # The scale cell's end-of-run set in miniature: CPU binds, 2-8 %
        # of the VMs are idle (zero CPU), a few are memory-heavy.
        cpu = 3.0 * rng.uniform(0.0, 1.0, size=n) ** 2
        cpu[rng.random(n) < rng.uniform(0.02, 0.08)] = 0.0
        mem = rng.uniform(0.05, 0.6, size=n)
        heavy = rng.random(n) < 0.03
        mem[heavy] = rng.uniform(2.5, 7.5, size=int(heavy.sum()))
        return np.column_stack([cpu, mem])
    # Big items first, then a long tail of small ones that keep fitting
    # bins opened long ago.
    big = rng.uniform(3.0, 7.0, size=(n // 3, 2))
    small = rng.uniform(0.0, 1.5, size=(n - n // 3, 2))
    return np.concatenate([big, small])


@lru_cache(maxsize=None)
def corpus():
    """``(demands, reference bins)`` pairs: per shape, small sets that
    stay on the suffix path and sets of 500-3 000 items that leave it."""
    sets = []
    for k, shape in enumerate(SHAPES):
        for seed in range(12):
            sets.append(demand_set(shape, 1 + (seed * 37 + k * 11) % 160, seed))
        for seed in range(3):
            sets.append(demand_set(shape, 500 + (seed * 1571 + k * 331) % 2501, 100 + seed))
    return tuple((demands, reference_bfd_pack(demands, CAP)) for demands in sets)


@st.composite
def demand_sets(draw):
    shape = draw(st.sampled_from(SHAPES))
    n = draw(st.one_of(st.integers(1, 150), st.integers(500, 3000)))
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
        for demands, expected in corpus():
            assert bfd_pack(demands, CAP) == expected

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


class TestChunkEdges:
    """Items reach the packing ``_CHUNK`` at a time, and the bins are
    built from the per-item placements ``_CHUNK`` at a time: a chunk
    boundary must not drop, repeat or reorder an item."""

    @pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
    @pytest.mark.parametrize("shape", ["trace_like", "trace_like_swapped", "eighths"])
    def test_same_bins_around_the_chunk_size(self, shape, n):
        demands = demand_set(shape, n, n)
        if shape.startswith("trace_like"):
            cpu = demands[:, 1 if shape.endswith("_swapped") else 0]
            assert (cpu == 0.0).any(), "the set must hold idle (zero-CPU) items"
        assert bfd_pack(demands, CAP) == reference_bfd_pack(demands, CAP)


class TestNextRung:
    """The 100k-PM rung's packing: the scale cell's 80 000 VMs five times
    over, each copy jittered by < 0.1 % so ties are not artificial (the
    set of ``benchmarks/bench_microbenchmarks.py::test_bfd_pack_400k``),
    33 515 bins.  Same bins as the scan of every open bin, and a traced
    peak of the result plus a few columns per item: 66 B per item
    measured (``test_bfd.py::TestMemoryBound`` derives the parts; the
    whole-list packing took 168)."""

    BYTES_PER_ITEM = 80

    @pytest.mark.slow
    def test_400k_items_same_bins_within_the_memory_bound(self):
        dc = end_of_run(20_000, 2016)
        demands, capacity = dc.vm_demand_matrix(), dc.store.pm_cap[0]
        rng = np.random.default_rng(0)
        demands = np.concatenate(
            [demands * (1.0 + rng.uniform(-1e-3, 1e-3, size=demands.shape)) for _ in range(5)]
        )
        bins, peak = traced_peak(bfd_pack, demands, capacity)
        assert len(demands) == 400_000 and len(bins) == 33_515
        assert peak <= self.BYTES_PER_ITEM * len(demands)
        assert bins == reference_bfd_pack(demands, capacity)


# The source each mutant edits, pinned verbatim: an edit that no longer
# applies fails loudly instead of passing for the wrong reason.
SCAN_FITS = "            fits = col_a[:n_open] >= ia\n"
SCAN_SLACK_OTHER = "                s_all += (col_b[cand] - ib) / cb\n"
WALK_EXIT = "                if tb > slack:\n"
UNINDEX_WINNER = "            del key_a[at], bin_a[at]\n"
SUFFIX_TIE_BREAK = (
    "                    if s < slack or (s == slack and j < best):\n"
    "                        best, slack, at = j, s, k\n"
)


def mutant(edit):
    """``bfd_pack`` of the module recompiled from its source after
    ``edit(source)`` (the edits land in ``_place``)."""
    return mutant_module(bfd, edit).bfd_pack


def residual_equal_to_item_does_not_fit(source: str) -> str:
    return replace_once(source, SCAN_FITS, SCAN_FITS.replace(">=", ">"))


def slack_forgets_memory(source: str) -> str:
    return replace_once(source, SCAN_SLACK_OTHER, "")


def early_exit_drops_a_tie(source: str) -> str:
    return replace_once(source, WALK_EXIT, WALK_EXIT.replace(">", ">="))


def winner_not_rekeyed(source: str) -> str:
    return replace_once(source, UNINDEX_WINNER, "            pass\n")


def tie_break_removed(source: str) -> str:
    return replace_once(
        source, SUFFIX_TIE_BREAK, SUFFIX_TIE_BREAK.replace(" or (s == slack and j < best)", "")
    )


class TestMutantsAreCaught:
    def test_unmutated_source_round_trips(self):
        same = mutant(lambda source: source + "\n")
        for demands, expected in corpus():
            assert same(demands, CAP) == expected

    @pytest.mark.parametrize(
        "edit",
        [
            residual_equal_to_item_does_not_fit,
            slack_forgets_memory,
            early_exit_drops_a_tie,
            winner_not_rekeyed,
            tie_break_removed,
        ],
    )
    def test_mutant_diverges_on_the_corpus(self, edit):
        broken = mutant(edit)
        assert any(broken(demands, CAP) != expected for demands, expected in corpus())
