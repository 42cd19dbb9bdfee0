"""Property tests for the checkpoint array codec (``repro.util.io``).

``pack_array`` / ``unpack_array`` are the only codec of checkpoint
schema v3: every O(n) state section is one leaf ``{"dtype", "shape",
"b64"}``.  Two promises are held here:

* the round trip is *byte*-identical for every allowed dtype and shape —
  NaN payloads, ``-0.0``, subnormals and int64 extremes included — and
  for inputs that are not already little-endian C-order buffers;
* every malformed leaf is refused with a ``ValueError`` that names the
  section being read, never a numpy, ``binascii`` or ``KeyError`` from
  half-way through decoding.
"""

import base64
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.util.io import pack_array, split_rows, unpack_array

ALLOWED = ["?", "i1", "u1", "<i2", "<u2", "<i4", "<u4", "<i8", "<u8", "<f2", "<f4", "<f8"]
WHERE = "state/some/section"

shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5)


def raw_arrays():
    """Arrays of every allowed dtype built from raw bytes, so every bit
    pattern (signalling NaNs, NaN payloads, -0.0, subnormals) occurs."""

    def build(dtype, shape, data):
        size = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        raw = data.draw(st.binary(min_size=size, max_size=size))
        arr = np.frombuffer(raw, dtype=dtype).reshape(shape)
        # bool bytes other than 0/1 are not values numpy itself produces.
        return arr != 0 if arr.dtype.kind == "b" else arr

    return st.builds(build, st.sampled_from(ALLOWED), shapes, st.data())


def through_json(leaf):
    return json.loads(json.dumps(leaf))


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(arr=raw_arrays())
    def test_byte_identical_for_every_allowed_dtype_and_shape(self, arr):
        leaf = through_json(pack_array(arr))
        assert set(leaf) == {"dtype", "shape", "b64"}
        out = unpack_array(leaf, WHERE)
        assert out.dtype == arr.dtype and out.shape == arr.shape
        assert out.tobytes() == arr.tobytes()
        assert not out.flags.writeable

    @pytest.mark.parametrize(
        "values",
        [
            [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, float("inf"), -float("inf")],
            [np.iinfo(np.int64).min, -1, 0, 1, np.iinfo(np.int64).max],
        ],
        ids=["float-edges", "int64-extremes"],
    )
    def test_edge_values(self, values):
        arr = np.array(values)
        out = unpack_array(through_json(pack_array(arr)), WHERE)
        assert out.tobytes() == arr.tobytes()

    def test_nan_payloads_survive(self):
        bits = np.array(
            [0x7FF8000000000000, 0xFFF8000000000001, 0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF],
            dtype="<u8",
        )
        arr = bits.view("<f8")
        out = unpack_array(through_json(pack_array(arr)), WHERE)
        assert out.view("<u8").tolist() == bits.tolist()

    @settings(max_examples=60, deadline=None)
    @given(
        arr=hnp.arrays(
            st.sampled_from(["<f8", "<i8", "<i4"]),
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
            elements=st.integers(-1000, 1000),
        )
    )
    def test_non_contiguous_and_big_endian_inputs(self, arr):
        expected = np.ascontiguousarray(arr)
        for variant in (arr.T, arr[::-1, ::2], arr.astype(arr.dtype.newbyteorder(">"))):
            leaf = pack_array(variant)
            assert leaf["dtype"] == arr.dtype.str
            out = unpack_array(leaf, WHERE)
            np.testing.assert_array_equal(out, variant)
            assert out.dtype == arr.dtype
        assert unpack_array(pack_array(arr), WHERE).tobytes() == expected.tobytes()

    def test_scalar_empty_and_python_lists(self):
        assert unpack_array(pack_array(3.5), WHERE).shape == ()
        assert unpack_array(pack_array([], "<i4"), WHERE).shape == (0,)
        assert unpack_array(pack_array(np.zeros((0, 4))), WHERE).shape == (0, 4)
        assert unpack_array(pack_array([1, 2, 3], "<i4"), WHERE).tolist() == [1, 2, 3]

    @pytest.mark.parametrize("values", [["a", "b"], [object()], [1 + 2j], [b"x"]])
    def test_unpackable_dtypes_are_refused_at_pack_time(self, values):
        with pytest.raises(TypeError, match="cannot pack"):
            pack_array(np.array(values))


def _leaf():
    return pack_array(np.arange(6, dtype="<f8").reshape(2, 3))


def _mutants():
    good = _leaf()
    yield "truncated-b64", {**good, "b64": good["b64"][:-4]}
    yield "b64-one-char-short", {**good, "b64": good["b64"][:-1]}
    yield "b64-not-alphabet", {**good, "b64": "!" + good["b64"][1:]}
    yield "b64-whitespace", {**good, "b64": good["b64"][:8] + "\n" + good["b64"][8:]}
    yield "b64-not-a-string", {**good, "b64": 7}
    yield "b64-non-ascii", {**good, "b64": "é" + good["b64"][1:]}
    yield "flipped-shape", {**good, "shape": [2, 4]}
    yield "negative-shape", {**good, "shape": [-2, -3]}
    yield "float-shape", {**good, "shape": [2.0, 3.0]}
    yield "bool-shape", {**good, "shape": [True, 6]}
    yield "shape-not-a-list", {**good, "shape": 6}
    yield "dtype-object", {**good, "dtype": "O"}
    yield "dtype-object-spelled", {**good, "dtype": "|O"}
    yield "dtype-str", {**good, "dtype": "<U4"}
    yield "dtype-big-endian", {**good, "dtype": ">f8"}
    yield "dtype-native-alias", {**good, "dtype": "float64"}
    yield "dtype-structured", {**good, "dtype": "<f8,<f8"}
    yield "dtype-not-a-string", {**good, "dtype": ["<f8"]}
    yield "dtype-wrong-width", {**good, "dtype": "<f4"}
    yield "extra-key", {**good, "note": "hello"}
    yield "missing-key", {k: v for k, v in good.items() if k != "shape"}
    yield "plain-list", [0.0, 1.0, 2.0]
    yield "none", None
    yield "string", good["b64"]


MUTANTS = dict(_mutants())


class TestRefusals:
    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_every_mutant_is_a_value_error_naming_the_section(self, name):
        with pytest.raises(ValueError, match=WHERE) as info:
            unpack_array(MUTANTS[name], WHERE)
        # A ValueError of our own, not one escaping from numpy/binascii.
        assert type(info.value) is ValueError

    def test_kind_filter(self):
        with pytest.raises(ValueError, match=f"{WHERE}.*kind 'iu'"):
            unpack_array(_leaf(), WHERE, "iu")
        assert unpack_array(_leaf(), WHERE, "f").shape == (2, 3)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_any_single_corruption_of_the_text_is_refused_or_changes_only_values(self, data):
        """Flip one character of the base64 text: either the leaf is
        refused, or it decodes to the same shape and dtype (a changed
        value is for the semantic checks above the codec to catch)."""
        good = _leaf()
        text = good["b64"]
        i = data.draw(st.integers(0, len(text) - 1))
        ch = data.draw(st.characters(min_codepoint=32, max_codepoint=126))
        leaf = {**good, "b64": text[:i] + ch + text[i + 1 :]}
        try:
            out = unpack_array(leaf, WHERE)
        except ValueError as exc:
            assert WHERE in str(exc)
        else:
            assert out.shape == (2, 3) and out.dtype == np.dtype("<f8")

    def test_length_check_precedes_frombuffer(self):
        """A byte count that is a multiple of the itemsize but not of the
        shape would reshape-fail inside numpy; it must fail in ours."""
        leaf = {"dtype": "<f8", "shape": [5], "b64": base64.b64encode(bytes(48)).decode()}
        with pytest.raises(ValueError, match=f"{WHERE}: 48 bytes do not fill shape"):
            unpack_array(leaf, WHERE)


class TestSplitRows:
    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.lists(st.integers(-5, 5), max_size=4), max_size=6))
    def test_inverts_concatenation(self, rows):
        counts = np.array([len(r) for r in rows], dtype="<i4")
        flat = np.array([v for r in rows for v in r], dtype="<i8")
        assert [r.tolist() for r in split_rows(counts, flat, WHERE)] == rows

    @pytest.mark.parametrize(
        "counts, flat",
        [([2, 2], [1, 2, 3]), ([4, -1], [1, 2, 3]), ([1], [1, 2]), ([[1, 2]], [1, 2, 3])],
        ids=["short", "negative", "long", "counts-2d"],
    )
    def test_counts_that_do_not_add_up_are_refused(self, counts, flat):
        with pytest.raises(ValueError, match=WHERE):
            split_rows(np.array(counts), np.array(flat), WHERE)


def test_narrowing_never_wraps():
    """An out-of-range Python int raises inside numpy; an *array* cast
    would wrap (or truncate) silently, so ``pack_array`` checks it."""
    assert unpack_array(pack_array(np.array([0, 65535]), "<u2"), WHERE).tolist() == [0, 65535]
    for values, dtype in (([0, 65536], "<u2"), ([-1], "<u2"), ([2**31], "<i4")):
        with pytest.raises(OverflowError):
            pack_array(np.array(values), dtype)
        with pytest.raises(OverflowError):
            pack_array(values, dtype)
    with pytest.raises(OverflowError):
        pack_array(np.array([1.5]), "<i4")
