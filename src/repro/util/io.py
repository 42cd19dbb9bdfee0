"""Atomic file writes and appends, and the packed-array codec.

Durable artifacts — learned Q-models, checkpoints, result archives,
bench summaries — must never be observable half-written: a crash during
a plain ``write_text`` leaves a truncated file that later loads as
corrupt JSON, silently poisoning a resume.  The cure is the standard
write-to-temp-then-rename dance: POSIX ``rename(2)`` within one
directory is atomic, so readers see either the complete old content or
the complete new content, never a mixture.

Streaming artifacts (the heartbeat sink) need the *append* analogue:
each record is one whole line handed to the kernel in a single
``write(2)`` on an ``O_APPEND`` descriptor, so a concurrent tail-reader
sees each line either entirely or not at all, and two appenders never
interleave within a line.  A crash can still truncate the final line
(the process died mid-``write``), which is why the JSONL readers grow
an ``allow_partial_tail`` escape hatch rather than pretending torn
tails cannot happen.

Bulk numeric state inside a JSON artifact (a checkpoint) goes through
one codec, :func:`pack_array` / :func:`unpack_array`: an array becomes
the leaf ``{"dtype", "shape", "b64"}`` — bytes, not decimal digits —
and comes back only after every field of the leaf is checked.  A packed
leaf is a :class:`PackedLeaf`, which holds the little-endian C-order
array (or, for a group of tables, their distinct arrays end to end) and
no text: :func:`iter_json` base64-encodes it in 3-byte-aligned slices when
the writer reaches it, and base64 of aligned slices joins to the text
of the whole.  So a streamed document holds one slice of encoded text
at a time, and its bytes are those of the eager leaf.
"""

from __future__ import annotations

import base64
import binascii
import io
import json
import math
import os
import sys
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, List, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "atomic_write_text",
    "atomic_write_chunks",
    "atomic_write_json",
    "iter_json",
    "PackedLeaf",
    "pack_array",
    "unpack_array",
    "split_rows",
    "append_text_line",
    "append_jsonl",
    "iter_jsonl",
]


def atomic_write_text(text: str, path: Union[str, Path]) -> None:
    """Write ``text`` to ``path`` atomically (tmp file + rename).

    The temporary file lives next to the target (same filesystem, so
    the final ``replace`` is a true atomic rename) under a ``.tmp``
    suffix.  On any failure mid-write the target is left untouched; a
    stale ``.tmp`` from a previous crash is simply overwritten.
    """
    atomic_write_chunks((text,), path)


def atomic_write_chunks(chunks: Iterable[str], path: Union[str, Path]) -> None:
    """:func:`atomic_write_text` of ``"".join(chunks)``, each chunk written
    to the ``.tmp`` file as the iterable makes it, so the whole text never
    exists at once.  A chunk that raises leaves the target untouched and
    no ``.tmp`` behind."""
    target = Path(path)
    tmp = target.with_suffix(target.suffix + ".tmp")
    try:
        with tmp.open("w") as fh:
            fh.writelines(chunks)
        tmp.replace(target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_json(payload: Any, path: Union[str, Path], **dumps_kwargs: Any) -> None:
    """Serialise ``payload`` as JSON and write it atomically.

    ``dumps_kwargs`` pass through to :func:`json.dumps` (``indent``,
    ``sort_keys``, ...).  Serialisation happens *before* the temp file
    is opened, so an unserialisable payload never disturbs the target
    or leaves a temp file behind.
    """
    text = json.dumps(payload, **dumps_kwargs)
    atomic_write_text(text, path)


#: Characters of base64 per piece that :func:`iter_json` writes: the
#: size of the text file's own buffer.
_PIECE = io.DEFAULT_BUFFER_SIZE
#: Bytes of array per piece: 3-byte-aligned, so the pieces' base64 joins
#: to the base64 of the whole.
_RAW_PIECE = _PIECE // 4 * 3


def iter_json(value: Any) -> Iterator[str]:
    """``json.dumps(value)`` in pieces that join to exactly its text,
    where a :class:`PackedLeaf` reads as its eager leaf
    ``{"dtype", "shape", "b64"}``.

    A dict with string keys comes key by key, each value split the same
    way; a packed leaf's base64 comes in slices of at most ``_PIECE``
    characters, encoded from its arrays as they are reached; anything
    else is one piece from the C encoder (``json.dump`` would run the
    pure-Python one).  Only the lists, strings and numbers are
    serialised whole, so writing the pieces one at a time holds no copy
    of the document.
    """
    if isinstance(value, PackedLeaf):
        yield f'{{"dtype": {json.dumps(value.dtype)}, "shape": {json.dumps(value.shape)}, "b64": "'
        yield from value.b64_pieces()
        yield '"}'
    elif isinstance(value, dict) and value and all(isinstance(key, str) for key in value):
        sep = "{"
        for key, item in value.items():
            yield f"{sep}{json.dumps(key)}: "
            yield from iter_json(item)
            sep = ", "
        yield "}"
    else:
        yield json.dumps(value)


#: dtypes a packed leaf may carry: bool, ints and floats, little-endian
#: (one-byte types have no order) — never object, str or structured.
_PACKED_DTYPES = frozenset(np.dtype(c).newbyteorder("<").str for c in "?bBhHiIqQefd")


class PackedLeaf:
    """A packed array leaf, encoded only when it is written.

    ``parts`` are arrays whose values, cast to ``dtype`` (an entry of
    ``_PACKED_DTYPES``) and laid end to end in C order, are the leaf's
    ``shape``: one array for :func:`pack_array`, one per table for a
    group of tables.  The leaf holds them, not copies: whoever builds
    one over live arrays must write it before those arrays change.
    Two leaves are equal when their dtype, shape and bytes are; a leaf
    equals the eager dict it encodes to.
    """

    __slots__ = ("dtype", "shape", "parts")

    def __init__(self, dtype: str, shape: List[int], parts: Sequence[np.ndarray]) -> None:
        self.dtype = dtype
        self.shape = shape
        self.parts = parts

    def _buffers(self) -> Iterator[np.ndarray]:
        """Each part's little-endian C-order bytes, as a flat ``uint8``
        array (a view, unless the part needs a cast)."""
        for part in self.parts:
            yield np.ascontiguousarray(part, self.dtype).reshape(-1).view(np.uint8)

    def b64_pieces(self) -> Iterator[str]:
        """The base64 of the leaf's bytes, in pieces that join to it.

        Each part's bytes are encoded in 3-byte-aligned slices of at
        most ``_RAW_PIECE``; the fewer than 3 bytes a part ends with are
        carried into the next part's first slice."""
        encode = binascii.b2a_base64
        carry = b""
        for buf in self._buffers():
            if carry:
                head = 3 - len(carry)
                carry += bytes(buf[:head])
                buf = buf[head:]
                if len(carry) < 3:
                    continue
                yield encode(carry, newline=False).decode()
            end = buf.shape[0] - buf.shape[0] % 3
            for lo in range(0, end, _RAW_PIECE):
                yield encode(buf[lo : min(lo + _RAW_PIECE, end)], newline=False).decode()
            carry = bytes(buf[end:])
        if carry:
            yield encode(carry, newline=False).decode()

    def raw(self) -> bytes:
        """The leaf's bytes, whole (for in-memory round trips)."""
        return b"".join(self._buffers())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PackedLeaf):
            return (self.dtype, self.shape, self.raw()) == (other.dtype, other.shape, other.raw())
        if isinstance(other, dict):
            return other == {"dtype": self.dtype, "shape": self.shape,
                             "b64": "".join(self.b64_pieces())}
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"PackedLeaf(dtype={self.dtype!r}, shape={self.shape!r}, parts={len(self.parts)})"


def pack_array(values: Any, dtype: Any = None) -> PackedLeaf:
    """``values`` as a packed leaf: the array's little-endian C-order
    bytes, base64-encoded when written, so every bit pattern (NaN
    payloads, ``-0.0``, subnormals) survives by construction.

    The leaf shares memory with ``values`` when that already is such an
    array: write the leaf before changing ``values``, or pass a copy."""
    arr = np.asarray(values, dtype=dtype)
    # Array-to-array integer casts wrap silently (lists raise on their own).
    narrowed = arr is not values and isinstance(values, np.ndarray) and arr.dtype.kind in "iu"
    if narrowed and np.any(arr != values):
        raise OverflowError(f"values do not fit dtype {arr.dtype}")
    little = arr.dtype.newbyteorder("<")
    if little.str not in _PACKED_DTYPES:
        raise TypeError(f"cannot pack dtype {arr.dtype!r} (bool/int/float only)")
    return PackedLeaf(little.str, list(arr.shape), (np.ascontiguousarray(arr, little),))


def unpack_array(leaf: Any, where: str, kinds: str = "biuf") -> np.ndarray:
    """Inverse of :func:`pack_array`, as a read-only array: of the leaf
    as read from JSON, or of a :class:`PackedLeaf` not yet written.

    Checked before any ``frombuffer``: the leaf's keys, its dtype against
    the allow-list and the dtype ``kinds`` the caller accepts, the shape,
    strict base64, and the byte count against the shape.  Any failure is
    a ``ValueError`` naming ``where``, the section being read.
    """
    if isinstance(leaf, PackedLeaf):
        dtype, shape = leaf.dtype, leaf.shape
    elif not isinstance(leaf, dict) or set(leaf) != {"dtype", "shape", "b64"}:
        raise ValueError(f"{where}: expected a packed array leaf {{dtype, shape, b64}}")
    else:
        dtype, shape = leaf["dtype"], leaf["shape"]
    if not (isinstance(dtype, str) and dtype in _PACKED_DTYPES and np.dtype(dtype).kind in kinds):
        raise ValueError(f"{where}: dtype {dtype!r} is not a little-endian array of kind {kinds!r}")
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise ValueError(f"{where}: malformed shape {shape!r}")
    if isinstance(leaf, PackedLeaf):
        raw = leaf.raw()
    else:
        try:
            if sys.version_info >= (3, 11):
                # What ``b64decode(validate=True)`` calls, minus the ASCII
                # copy of the whole text it makes first: the peak is the bytes.
                raw = binascii.a2b_base64(leaf["b64"], strict_mode=True)
            else:  # ``strict_mode`` is new in 3.11
                raw = base64.b64decode(leaf["b64"], validate=True)
        except (TypeError, ValueError):  # binascii.Error is a ValueError
            raise ValueError(f"{where}: b64 is not valid base64") from None
    if len(raw) != math.prod(shape) * np.dtype(dtype).itemsize:
        raise ValueError(f"{where}: {len(raw)} bytes do not fill shape {shape} of {dtype}")
    return np.frombuffer(raw, dtype=dtype).reshape(shape)


def split_rows(counts: np.ndarray, flat: np.ndarray, where: str) -> List[np.ndarray]:
    """Cut ``flat`` into consecutive rows of ``counts[i]`` items each: the
    inverse of storing ragged rows concatenated beside a length column."""
    if counts.ndim != 1 or flat.ndim != 1 or np.any(counts < 0) or counts.sum() != flat.size:
        raise ValueError(f"{where}: row counts do not add up to the {flat.size} values stored")
    ends = np.cumsum(counts).tolist()
    return [flat[a:b] for a, b in zip([0] + ends, ends)]


def append_text_line(line: str, path: Union[str, Path]) -> None:
    """Append one newline-terminated line via a single ``write(2)``.

    The descriptor is opened ``O_APPEND`` and the whole line (newline
    included) goes to the kernel in one call, so concurrent readers of
    a regular file never observe a torn *prefix* of the line — the only
    failure mode left is a crash truncating the final line, which the
    ``allow_partial_tail`` readers tolerate.  ``line`` must not contain
    embedded newlines (it would silently become several records).
    """
    if "\n" in line:
        raise ValueError("append_text_line takes a single line (no embedded newlines)")
    data = (line + "\n").encode("utf-8")
    fd = os.open(str(path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, data)
    finally:
        os.close(fd)


def append_jsonl(payload: Any, path: Union[str, Path]) -> None:
    """Serialise ``payload`` compactly and append it as one JSONL line."""
    append_text_line(json.dumps(payload, separators=(",", ":")), path)


def iter_jsonl(
    source: Union[str, Path, IO[str]],
    allow_partial_tail: bool = False,
    where: str = "jsonl",
) -> Iterator[Tuple[int, Any]]:
    """Stream ``(lineno, payload)`` pairs from a JSON Lines source.

    Blank lines are skipped.  A malformed line raises ``ValueError``
    with its 1-based line number — unless ``allow_partial_tail`` is set
    *and* the malformed line is the final non-blank line of the file,
    in which case iteration simply stops before it.  That is exactly
    the shape of a live file whose writer is mid-``write`` (or died
    there): tail-followers opt in, archival readers stay strict.
    A malformed line *followed by more data* is corruption, not a torn
    tail, and raises regardless.
    """
    owns = isinstance(source, (str, Path))
    fh: IO[str] = open(source, "r", encoding="utf-8") if owns else source  # type: ignore[arg-type]
    try:
        # Defer the error for a bad line until we know whether anything
        # follows it: final line -> tolerated tail, otherwise corruption.
        pending_error: str | None = None
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if pending_error is not None:
                raise ValueError(pending_error)
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                message = f"{where} line {lineno}: invalid JSON ({exc})"
                if allow_partial_tail:
                    pending_error = message
                    continue
                raise ValueError(message) from None
            yield lineno, payload
    finally:
        if owns:
            fh.close()
