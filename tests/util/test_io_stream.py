"""``iter_json`` / ``atomic_write_chunks``: a JSON document written a
piece at a time, byte for byte ``json.dumps``'s of the eager document,
atomically.

A packed leaf is written from its arrays in 3-byte-aligned slices, a
group of tables (``QTable.pack_all``: each distinct key and value array
once) carrying the fewer than 3 bytes an array ends with into the next.
The oracle is the eager encoder kept in ``tests/util/_reference_codec.py``:
the joined pieces must be ``json.dumps`` of the leaf it builds from the
concatenated arrays.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.qtable import QTable
from repro.core.states import N_STATES
from repro.util import io as io_module
from repro.util.io import (
    _PACKED_DTYPES,
    _PIECE,
    _RAW_PIECE,
    atomic_write_chunks,
    iter_json,
    pack_array,
)
from tests._mutants import mutant_module, replace_once
from tests.util import _reference_codec as ref

DTYPES = sorted(_PACKED_DTYPES)

DOCUMENTS = [
    {},
    [],
    None,
    "",
    {"a": {}, "b": [], "c": {"d": None}},
    {"nan": math.nan, "inf": -math.inf, "neg_zero": -0.0, "big": 2**70},
    # Non-string keys are converted by the encoder, so such a dict is one piece.
    {1: "one", 2.5: "x", True: "t", None: "n"},
    {"outer": {3: [1, 2]}},
    {"leaf": pack_array(list(range(3 * _PIECE)), "<i4")},
    {"empty": pack_array([], "<f8"), "scalar": pack_array(2.5), "nested": {"x": pack_array([1])}},
    # Long strings go to the encoder whole, escaped or not.
    {"quote": '"' * (_PIECE + 1), "slash": "\\" * (_PIECE + 1)},
    {"ctrl": "\n" + "a" * (2 * _PIECE), "del": "\x7f" * (_PIECE + 3)},
    {"ünï": "é" * (_PIECE + 5), "a" * (_PIECE + 1): "b" * (_PIECE * 2 + 1)},
]


def joined(document, codec=io_module):
    return "".join(codec.iter_json(document))


@pytest.mark.parametrize("document", DOCUMENTS)
def test_pieces_join_to_json_dumps(document):
    assert joined(document) == json.dumps(ref.eager(document))


def test_long_base64_comes_in_slices():
    pieces = list(iter_json(pack_array(np.arange(3 * _RAW_PIECE, dtype="u1"))))
    assert [len(p) for p in pieces[1:-1]] == [_PIECE] * 3
    assert _RAW_PIECE % 3 == 0 and _RAW_PIECE // 3 * 4 == _PIECE


_json = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20,
)


@given(_json)
@settings(max_examples=200, deadline=None)
def test_pieces_join_to_json_dumps_on_any_document(document):
    assert joined(document) == json.dumps(document)


# -- packed leaves against the eager encoder ------------------------------------


def raw_arrays(shapes=hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6)):
    """Arrays of every packable dtype built from raw bytes: 0-size,
    0-d and multi-dimensional shapes, every bit pattern."""

    def build(dtype, shape, data):
        size = math.prod(shape) * np.dtype(dtype).itemsize
        arr = np.frombuffer(data.draw(st.binary(min_size=size, max_size=size)), dtype)
        arr = arr.reshape(shape)
        return arr != 0 if arr.dtype.kind == "b" else arr

    return st.builds(build, st.sampled_from(DTYPES), shapes, st.data())


@settings(max_examples=300, deadline=None)
@given(arr=raw_arrays())
def test_leaf_is_the_eager_leaf_for_every_dtype_and_shape(arr):
    assert joined(pack_array(arr)) == json.dumps(ref.pack_array(arr))


@settings(max_examples=80, deadline=None)
@given(arr=raw_arrays(hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=7)))
def test_non_contiguous_and_big_endian_inputs(arr):
    for variant in (arr.T, arr[::-1, ::2], arr.astype(arr.dtype.newbyteorder(">"))):
        assert joined(pack_array(variant)) == json.dumps(ref.pack_array(variant))


#: Byte lengths at the edges of the base64 grid and of a piece.
LENGTHS = [0, 1, 2, 3, 4, _RAW_PIECE - 1, _RAW_PIECE, _RAW_PIECE + 1, 2 * _RAW_PIECE + 2]


@pytest.mark.parametrize("n_bytes", LENGTHS)
@pytest.mark.parametrize("dtype", ["u1", "<u2", "<f8"])
def test_byte_lengths_at_the_grid_and_piece_edges(n_bytes, dtype):
    size = np.dtype(dtype).itemsize
    count = -(-n_bytes // size)  # the shortest array of at least n_bytes
    arr = np.frombuffer(bytes(range(256)) * (count * size // 256 + 1), "u1")
    arr = arr[: count * size].view(dtype)
    assert joined(pack_array(arr)) == json.dumps(ref.pack_array(arr))


def _tables(lengths, seed=0):
    """Q-maps with ``lengths`` entries: random sorted codes, raw values."""
    rng = np.random.default_rng(seed)
    return [
        QTable._of(
            np.sort(rng.choice(N_STATES * N_STATES, n, replace=False)),
            rng.standard_normal(n),
        )
        for n in lengths
    ]


#: Table sizes whose byte boundaries fall off the 3-byte grid (keys are
#: 2 bytes an entry, values 8), empty tables between them, and tables
#: longer than a piece.
GROUPS = [
    [],
    [0],
    [1],
    [1, 1],
    [1, 0, 1, 0, 1],
    [2, 1, 5, 7, 0, 4],
    [_RAW_PIECE // 8 + 1, 1, _RAW_PIECE // 2 - 1, 2],
    [_RAW_PIECE // 2 + 1, 0, _RAW_PIECE + 2],
]


@pytest.mark.parametrize("lengths", GROUPS, ids=str)
def test_table_group_is_the_concatenated_one(lengths):
    tables = _tables(lengths)
    assert joined(QTable.pack_all(tables)) == json.dumps(ref.pack_all(tables))


@settings(max_examples=150, deadline=None)
@given(
    lengths=st.lists(st.integers(0, 40) | st.sampled_from([_RAW_PIECE // 8, _RAW_PIECE // 2 + 1]),
                     max_size=12),
    seed=st.integers(0, 2**16),
)
def test_any_table_group_is_the_concatenated_one(lengths, seed):
    tables = _tables(lengths, seed)
    assert joined(QTable.pack_all(tables)) == json.dumps(ref.pack_all(tables))


def _sharing(tables):
    """Which tables hold one key array, and which one value array."""
    return [[(a._keys is b._keys, a._vals is b._vals) for b in tables] for a in tables]


def test_shared_storage_is_written_once_and_read_back_shared():
    tables = _tables([3, 0, 5, 2])
    # Two copies (shared keys and values), and a table over table 2's
    # key set with values of its own.
    tables += [tables[0].copy(), tables[2].copy(), QTable._of(*tables[2].packed())]
    packed = QTable.pack_all(tables)
    assert joined(packed) == json.dumps(ref.pack_all(tables))
    assert packed["key_count"].shape == [4] and packed["vals_keys"].shape == [5]
    again = QTable.unpack_all(json.loads(joined(packed)), "shared")
    assert _sharing(again) == _sharing(tables)
    assert [dict(t.items()) for t in again] == [dict(t.items()) for t in tables]


def test_leaf_round_trips_in_memory_and_compares_with_its_json():
    tables = _tables([3, 0, 5])
    packed = QTable.pack_all(tables)
    assert packed == json.loads(joined(packed)) == ref.pack_all(tables)
    again = QTable.unpack_all(packed, "in-memory")
    assert [t.packed()[1].tolist() for t in again] == [t.packed()[1].tolist() for t in tables]
    assert pack_array([1, 2], "<i4") != pack_array([1, 3], "<i4")
    assert pack_array([1, 2], "<i4") != pack_array([1, 2], "<i8")


# -- mutants: the corpus above catches a misaligned slice or a lost carry --------

#: (dtype, shape, parts) cases of the corpus, without hypothesis.
CORPUS = [
    *(
        ("|u1", [n], [np.arange(n, dtype="u1")])
        for n in LENGTHS
    ),
    *(
        ("<u2", [sum(lengths)], [t.packed()[0] for t in _tables(lengths)])
        for lengths in GROUPS
    ),
]

MUTANTS = {
    "slice not 3-aligned": ("_RAW_PIECE = _PIECE // 4 * 3\n", "_RAW_PIECE = _PIECE // 4 * 3 + 1\n"),
    "carry dropped at a table boundary": (
        "            if carry:\n                head",
        "            if False:\n                head",
    ),
}


def _diverges(codec) -> bool:
    return any(
        joined(codec.PackedLeaf(dtype, shape, parts), codec)
        != json.dumps(ref.eager_leaf(dtype, shape, parts))
        for dtype, shape, parts in CORPUS
    )


def test_the_corpus_passes_the_real_encoder():
    assert not _diverges(io_module)


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_every_mutant_is_killed(name):
    old, new = MUTANTS[name]
    codec = mutant_module(io_module, lambda source: replace_once(source, old, new))
    assert _diverges(codec), f"the corpus misses the mutant {name!r}"


class TestAtomicWriteChunks:
    def test_writes_the_joined_chunks(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_chunks(iter(["{", '"a": ', "1", "}"]), target)
        assert target.read_text() == '{"a": 1}'
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_failure_mid_stream_preserves_the_original(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("precious")
        tmp = tmp_path / "out.json.tmp"

        def chunks():
            yield "half"
            assert tmp.exists()  # the stream is under way in the .tmp file
            raise RuntimeError("died mid-stream")

        with pytest.raises(RuntimeError, match="mid-stream"):
            atomic_write_chunks(chunks(), target)
        assert target.read_text() == "precious"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
