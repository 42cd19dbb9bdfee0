"""``iter_json`` / ``atomic_write_chunks``: a JSON document written a
piece at a time, byte for byte ``json.dumps``'s, atomically."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.io import _PIECE, atomic_write_chunks, iter_json, pack_array

LONG_B64 = pack_array(list(range(3 * _PIECE)), "<i4")["b64"]

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
    {"leaf": {"dtype": "<i4", "shape": [3 * _PIECE], "b64": LONG_B64}},
    # Long strings that do need escaping go to the encoder whole.
    {"quote": '"' * (_PIECE + 1), "slash": "\\" * (_PIECE + 1)},
    {"ctrl": "\n" + "a" * (2 * _PIECE), "del": "\x7f" * (_PIECE + 3)},
    {"ünï": "é" * (_PIECE + 5), "a" * (_PIECE + 1): "b" * (_PIECE * 2 + 1)},
    {"exact": "a" * _PIECE, "one_more": "a" * (_PIECE + 1)},
]


@pytest.mark.parametrize("document", DOCUMENTS)
def test_pieces_join_to_json_dumps(document):
    assert "".join(iter_json(document)) == json.dumps(document)


def test_long_base64_comes_in_slices():
    pieces = list(iter_json({"b64": LONG_B64}))
    assert max(map(len, pieces)) == _PIECE
    assert "".join(pieces) == json.dumps({"b64": LONG_B64})


_json = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20,
)


@given(_json)
@settings(max_examples=200, deadline=None)
def test_pieces_join_to_json_dumps_on_any_document(document):
    assert "".join(iter_json(document)) == json.dumps(document)


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
