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

Bulk numeric state inside a JSON artifact (checkpoint schema v3) goes
through one codec, :func:`pack_array` / :func:`unpack_array`: an array
becomes the leaf ``{"dtype", "shape", "b64"}`` — bytes, not decimal
digits — and comes back only after every field of the leaf is checked.
"""

from __future__ import annotations

import base64
import json
import math
import os
from pathlib import Path
from typing import IO, Any, Dict, Iterator, List, Tuple, Union

import numpy as np

__all__ = [
    "atomic_write_text",
    "atomic_write_json",
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
    target = Path(path)
    tmp = target.with_suffix(target.suffix + ".tmp")
    try:
        tmp.write_text(text)
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


#: dtypes a packed leaf may carry: bool, ints and floats, little-endian
#: (one-byte types have no order) — never object, str or structured.
_PACKED_DTYPES = frozenset(np.dtype(c).newbyteorder("<").str for c in "?bBhHiIqQefd")


def pack_array(values: Any, dtype: Any = None) -> Dict[str, Any]:
    """``values`` as a JSON-safe leaf ``{"dtype", "shape", "b64"}``: the
    array's little-endian C-order bytes in base64, so every bit pattern
    (NaN payloads, ``-0.0``, subnormals) survives by construction."""
    arr = np.asarray(values, dtype=dtype)
    # Array-to-array integer casts wrap silently (lists raise on their own).
    narrowed = arr is not values and isinstance(values, np.ndarray) and arr.dtype.kind in "iu"
    if narrowed and np.any(arr != values):
        raise OverflowError(f"values do not fit dtype {arr.dtype}")
    little = arr.dtype.newbyteorder("<")
    if little.str not in _PACKED_DTYPES:
        raise TypeError(f"cannot pack dtype {arr.dtype!r} (bool/int/float only)")
    raw = arr.astype(little, copy=False).tobytes()
    return {"dtype": little.str, "shape": list(arr.shape), "b64": base64.b64encode(raw).decode()}


def unpack_array(leaf: Any, where: str, kinds: str = "biuf") -> np.ndarray:
    """Inverse of :func:`pack_array`, as a read-only array.

    Checked before any ``frombuffer``: the leaf's keys, its dtype against
    the allow-list and the dtype ``kinds`` the caller accepts, the shape,
    strict base64, and the byte count against the shape.  Any failure is
    a ``ValueError`` naming ``where``, the section being read.
    """
    if not isinstance(leaf, dict) or set(leaf) != {"dtype", "shape", "b64"}:
        raise ValueError(f"{where}: expected a packed array leaf {{dtype, shape, b64}}")
    dtype, shape, b64 = leaf["dtype"], leaf["shape"], leaf["b64"]
    if not (isinstance(dtype, str) and dtype in _PACKED_DTYPES and np.dtype(dtype).kind in kinds):
        raise ValueError(f"{where}: dtype {dtype!r} is not a little-endian array of kind {kinds!r}")
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise ValueError(f"{where}: malformed shape {shape!r}")
    try:
        raw = base64.b64decode(b64, validate=True)
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
