"""The ``Generator`` identity Algorithm 1's draw loop stands on.

``LocalTrainer.collect`` draws its two bounds as ``lo + (hi - lo) *
rng.random()`` where the scalar loop it replaced called ``rng.uniform(lo,
hi)`` (DESIGN.md §5h).  That is the same value *and* the same generator
state only because numpy's ``uniform`` is one ``next_double`` scaled by
that very expression — an implementation detail no numpy document
promises.  It is pinned here for the two bounds the loop uses, over
streams whose 32-bit buffer a small ``integers`` draw has left half used,
and over the loop's own draw pattern, so that a numpy upgrade breaking it
fails here, with a message naming the version, instead of as a golden
digest mismatch.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pytest

#: The ``(lo, hi)`` of ``u_s`` and ``u_t`` in ``LocalTrainer.collect``.
BOUNDS = [(0.15, 1.3), (0.1, 1.2)]


def _broken(what: str) -> str:
    return (
        f"numpy {np.__version__}: {what} - LocalTrainer.collect draws "
        "uniform(lo, hi) as lo + (hi - lo) * random() (DESIGN.md §5h) and is "
        "no longer bit-identical to the loop every golden digest was taken with"
    )


def _first_mismatch(got: List[float], want: List[float]) -> str:
    at = next(i for i, (a, b) in enumerate(zip(got, want)) if a.hex() != b.hex())
    return f"draw {at}: uniform {got[at].hex()} vs scaled random {want[at].hex()}"


def _check_scaled_random(lo: float, hi: float, seed: int, draws: int) -> None:
    by_uniform, by_random = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in (by_uniform, by_random):
        rng.integers(7)  # one uint32 of a uint64 used, the other half buffered
    assert by_uniform.bit_generator.state["has_uint32"] == 1
    uniform, random = by_uniform.uniform, by_random.random
    got = [uniform(lo, hi) for _ in range(draws)]
    want = [lo + (hi - lo) * random() for _ in range(draws)]
    assert [x.hex() for x in got] == [x.hex() for x in want], _broken(_first_mismatch(got, want))
    assert by_uniform.bit_generator.state == by_random.bit_generator.state, _broken(
        f"the generator state differs after {draws} draws"
    )


def _check_draw_loop(seed: int, iterations: int) -> None:
    """The loop's pattern: ``permutation(n)``, the two bounds, ``integers(k_s)``."""
    old, new = np.random.default_rng(seed), np.random.default_rng(seed)
    sizes = np.random.default_rng(seed + 1).integers(2, 120, iterations).tolist()
    for i, n in enumerate(sizes):
        assert np.array_equal(old.permutation(n), new.permutation(n))
        drawn = [old.uniform(lo, hi) for lo, hi in BOUNDS]
        scaled = [lo + (hi - lo) * new.random() for lo, hi in BOUNDS]
        assert [x.hex() for x in drawn] == [x.hex() for x in scaled], _broken(
            f"iteration {i}: {_first_mismatch(drawn, scaled)}"
        )
        k_s = 1 + i % (n - 1)
        assert old.integers(k_s) == new.integers(k_s)
    assert old.bit_generator.state == new.bit_generator.state, _broken(
        f"the generator state differs after {iterations} loop iterations"
    )


@pytest.mark.parametrize("seed", [0, 99, 2016])
@pytest.mark.parametrize("lo,hi", BOUNDS)
def test_uniform_is_lo_plus_span_times_random(lo, hi, seed):
    _check_scaled_random(lo, hi, seed, 100_000)


def test_the_draw_loop_pattern_keeps_the_stream():
    _check_draw_loop(2016, 20_000)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 7, 3016, 2**40 + 3])
def test_uniform_is_lo_plus_span_times_random_deep(seed):
    for lo, hi in BOUNDS:
        _check_scaled_random(lo, hi, seed, 150_000)
    _check_draw_loop(seed, 30_000)
