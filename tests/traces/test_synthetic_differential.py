"""Differential: blocked trace synthesis vs the dense builder it replaced.

``repro.traces.synthetic`` draws and accumulates one block of
``_block_rows(n_rounds)`` VM rows at a time, straight into the round-major
array ``ArrayTrace`` keeps (DESIGN.md §5i).  ``tests/traces/_reference_synthetic.py``
is the dense code it replaced, verbatim: whole ``(n_vms, n_rounds)``
planes, VM-major result.  For every block width — one row, a prime, the
shipped width, wider than the trace — and each Google-like
parameterisation the two must agree value for value on ``.data`` **and**
leave the generator in the same state, so whatever draws next (the
placement stream never does, but a caller's own code may) is unmoved.

Five mutants must be *caught*, so the suite is known to see the bugs
blocking can introduce:

* the noise block drawn as ``(T-1, b)`` instead of ``(b, T-1).T`` (same
  stream position, values landing on the wrong cells);
* likewise the burst block's uniforms;
* the recurrence seeded from the first block's initial states in every
  block;
* the centring mean reduced over the round-major view (sequential sum
  down a strided axis instead of numpy's pairwise sum along a row);
* the centring done in place on a *view* of the CPU plane when the copy
  is skipped for an already-contiguous block.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.traces.synthetic as synthetic
from repro.traces.google import GoogleLikeTraceGenerator, GoogleTraceParams
from tests._mutants import mutant_module, replace_once
from tests.traces import _reference_synthetic as reference

#: ``width`` standing for "whatever ``_block_rows`` ships for this horizon".
SHIPPED = 0

PARAMS = {
    "default": GoogleTraceParams(),
    "rounds_per_day_12": GoogleTraceParams(rounds_per_day=12),
    "bursty": GoogleLikeTraceGenerator.bursty().params,
    "steady": GoogleLikeTraceGenerator.steady().params,
}


def fixed_width(module, width):
    rows = module._block_rows if width == SHIPPED else (lambda n_steps: width)
    return mock.patch.object(module, "_block_rows", rows)


def blocked(params, n_vms, n_rounds, seed, width, module=synthetic):
    """``(data, generator state)`` of the shipped builder at ``width``."""
    rng = np.random.default_rng(seed)
    with fixed_width(module, width), mock.patch(
        "repro.traces.google.SyntheticTraceBuilder", module.SyntheticTraceBuilder
    ):
        trace = GoogleLikeTraceGenerator(params).generate(n_vms, n_rounds, rng)
    return trace.data, rng.bit_generator.state


def dense(params, n_vms, n_rounds, seed):
    """``(data, generator state)`` of the dense oracle."""
    rng = np.random.default_rng(seed)
    data = reference.reference_google_trace(params, n_vms, n_rounds, rng)
    return data, rng.bit_generator.state


def agrees(name, n_vms, n_rounds, seed, width, module=synthetic):
    data, state = blocked(PARAMS[name], n_vms, n_rounds, seed, width, module)
    expected, expected_state = dense(PARAMS[name], n_vms, n_rounds, seed)
    return np.array_equal(data, expected) and state == expected_state


def widths_for(n_vms):
    """One row, a prime that leaves a ragged last block, the shipped
    width, and wider than the trace."""
    return (1, 7, SHIPPED, n_vms + 3)


#: ``(n_vms, n_rounds)``: single cells, the ``n_rounds`` in {1, 2} edges
#: (no noise draw / one recurrence step), pairwise-sum territory
#: (``n_rounds`` >= 8) and a shape that is several blocks of any width.
SHAPES = ((1, 1), (1, 9), (5, 2), (37, 1), (40, 33), (150, 24), (23, 130))


@st.composite
def cases(draw):
    n_vms = draw(st.integers(1, 200))
    n_rounds = draw(st.one_of(st.sampled_from((1, 2)), st.integers(3, 60)))
    width = draw(
        st.one_of(
            st.sampled_from((1, 2, 3, 5, 7, 11, 13, 31, 61, 127, SHIPPED)),
            st.integers(n_vms, n_vms + 2),
        )
    )
    return draw(st.sampled_from(sorted(PARAMS))), n_vms, n_rounds, draw(st.integers(0, 2**31 - 1)), width


class TestMatchesDense:
    @pytest.mark.parametrize("name", sorted(PARAMS))
    def test_fixed_corpus(self, name):
        for n_vms, n_rounds in SHAPES:
            for width in widths_for(n_vms):
                assert agrees(name, n_vms, n_rounds, 11, width), (n_vms, n_rounds, width)

    @pytest.mark.parametrize("name", sorted(PARAMS))
    def test_several_blocks_of_the_shipped_width(self, name):
        for n_rounds in (6, 300):  # the cell budget binds / the row floor binds
            n_vms = 2 * synthetic._block_rows(n_rounds) + 17
            for width in (1009, SHIPPED):
                assert agrees(name, n_vms, n_rounds, 5, width)

    @given(cases())
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_values_and_generator_state(self, case):
        assert agrees(*case)

    @pytest.mark.slow
    @given(cases())
    @settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_values_and_generator_state_deep(self, case):
        assert agrees(*case)

    @pytest.mark.slow
    @pytest.mark.parametrize("name", sorted(PARAMS))
    def test_50k_vms_deep(self, name):
        for width in (1009, SHIPPED):
            assert agrees(name, 50_000, 24, 2016, width)


class TestComponentWrappers:
    """``ar1_series`` / ``diurnal_profile`` / ``burst_mask`` are the same
    kernels assembled VM-major: same arrays, same stream."""

    CALLS = (
        ("ar1_series", (0.9, 0.05)),
        ("ar1_series", (-0.5, 0.0)),
        ("diurnal_profile", (12, (0.05, 0.2))),
        ("diurnal_profile", (720, (0.0, 0.03), 0.6)),
        ("burst_mask", (0.02, 15.0)),
        ("burst_mask", (0.0, 1.0)),
    )

    @pytest.mark.parametrize("func, args", CALLS)
    def test_same_array_same_stream(self, func, args):
        for n_series, n_steps in ((1, 1), (9, 2), (50, 40)):
            head, tail = args[:2], args[2:]
            r_ref = np.random.default_rng(3)
            expected = getattr(reference, func)(n_series, n_steps, *head, r_ref, *tail)
            for width in widths_for(n_series):
                rng = np.random.default_rng(3)
                with fixed_width(synthetic, width):
                    got = getattr(synthetic, func)(n_series, n_steps, *head, rng, *tail)
                assert got.shape == (n_series, n_steps) and got.dtype == expected.dtype
                assert got.flags.c_contiguous
                assert np.array_equal(got, expected)
                assert rng.bit_generator.state == r_ref.bit_generator.state


# The source each mutant edits, pinned verbatim: an edit that no longer
# applies fails loudly instead of passing for the wrong reason.
NOISE_DRAW = "        x[1:] = rng.normal(0.0, sigma, size=(x.shape[1], n_steps - 1)).T\n"
BURST_DRAW = "        u = np.ascontiguousarray(rng.random(size=(rows.stop - rows.start, n_steps)).T)\n"
INITIAL_STATE = "        x[0] = initial[rows]\n"
CENTRING_MEAN = "            cpu -= cpu.mean(axis=1, keepdims=True)\n"
CENTRING_COPY = "            cpu = self._sum[:, rows, CPU].T.copy()\n"


def noise_block_drawn_round_major(source: str) -> str:
    new = "        x[1:] = rng.normal(0.0, sigma, size=(n_steps - 1, x.shape[1]))\n"
    return replace_once(source, NOISE_DRAW, new)


def burst_block_drawn_round_major(source: str) -> str:
    new = "        u = rng.random(size=(n_steps, rows.stop - rows.start))\n"
    return replace_once(source, BURST_DRAW, new)


def recurrence_seeded_from_the_first_block(source: str) -> str:
    return replace_once(source, INITIAL_STATE, "        x[0] = initial[: x.shape[1]]\n")


def mean_over_the_round_major_view(source: str) -> str:
    new = "            cpu -= self._sum[:, rows, CPU].mean(axis=0)[:, None]\n"
    return replace_once(source, CENTRING_MEAN, new)


def centring_without_a_copy(source: str) -> str:
    new = "            cpu = np.ascontiguousarray(self._sum[:, rows, CPU].T)\n"
    return replace_once(source, CENTRING_COPY, new)


def mutant_corpus():
    for name in sorted(PARAMS):
        for n_vms, n_rounds in SHAPES:
            for width in widths_for(n_vms):
                yield name, n_vms, n_rounds, 11, width


class TestMutantsAreCaught:
    def test_unmutated_source_round_trips(self):
        same = mutant_module(synthetic, lambda source: source + "\n")
        assert all(agrees(*case, module=same) for case in mutant_corpus())

    @pytest.mark.parametrize(
        "edit",
        [
            noise_block_drawn_round_major,
            burst_block_drawn_round_major,
            recurrence_seeded_from_the_first_block,
            mean_over_the_round_major_view,
            centring_without_a_copy,
        ],
    )
    def test_mutant_diverges_on_the_corpus(self, edit):
        broken = mutant_module(synthetic, edit)
        assert not all(agrees(*case, module=broken) for case in mutant_corpus())
