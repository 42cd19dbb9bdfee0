"""Tests-only oracle: the eager packed-leaf encoder.

``repro.util.io.pack_array`` once returned the JSON leaf itself — the
dict ``{"dtype", "shape", "b64"}`` with the array's whole base64 text —
and ``QTable.pack_all`` concatenated the arrays before packing them.
Kept here as the reference the streamed encoder is compared against:
:func:`eager` turns any document holding
:class:`~repro.util.io.PackedLeaf` objects into the document those two
built, whose ``json.dumps`` is the file a checkpoint must write, and
:func:`pack_all` is an eager table-group packer of the same layout.
"""

from __future__ import annotations

import base64
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.qtable import _NO_KEYS, _NO_VALS
from repro.util.io import _PACKED_DTYPES, PackedLeaf

__all__ = ["pack_array", "pack_all", "eager_leaf", "eager"]


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


def _distinct(arrays: Sequence[np.ndarray]) -> Tuple[List[np.ndarray], List[int]]:
    """The distinct arrays (by identity) in first-use order, and the
    position of each input among them."""
    first: Dict[int, int] = {}
    for array in arrays:
        first.setdefault(id(array), len(first))
    by_id = {id(array): array for array in arrays}
    return [by_id[i] for i in first], [first[id(array)] for array in arrays]


def pack_all(tables: Sequence[Any]) -> Dict[str, Any]:
    """``QTable.pack_all``'s layout, eagerly: the distinct key arrays and
    the distinct value arrays, each set concatenated, then packed whole."""
    vals, table_vals = _distinct([t._vals for t in tables])
    # The key array of each value array: its first holder's.
    holders = {at: t._keys for t, at in zip(reversed(tables), reversed(table_vals))}
    keys, vals_keys = _distinct([holders[at] for at in range(len(vals))])
    return {
        "key_count": pack_array([len(k) for k in keys], "<i4"),
        "keys": pack_array(np.concatenate([_NO_KEYS] + keys), "<u2"),
        "vals_keys": pack_array(vals_keys, "<i4"),
        "vals": pack_array(np.concatenate([_NO_VALS] + vals)),
        "table_vals": pack_array(table_vals, "<i4"),
    }


def eager_leaf(dtype: str, shape: List[int], parts: Sequence[Any]) -> Dict[str, Any]:
    """The leaf of ``parts`` cast to ``dtype`` and laid end to end in C
    order (a :class:`PackedLeaf`'s fields), encoded whole."""
    flat = np.concatenate(
        [np.empty(0, dtype)] + [np.asarray(part).astype(dtype).ravel() for part in parts]
    )
    return pack_array(flat.reshape(shape), dtype)


def eager(document: Any) -> Any:
    """``document`` with every packed leaf encoded whole."""
    if isinstance(document, PackedLeaf):
        return eager_leaf(document.dtype, document.shape, document.parts)
    if isinstance(document, dict):
        return {key: eager(value) for key, value in document.items()}
    if isinstance(document, list):
        return [eager(value) for value in document]
    return document
