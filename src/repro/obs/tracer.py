"""Structured event tracing.

GLAP's claims are about *dynamics* — migration bursts, Q-table pushes,
PMs dropping off to sleep — yet aggregate metrics only show the end
state.  The tracer turns the simulation's decision points into a typed,
machine-readable event stream (JSON Lines, one event per line) with
round and node provenance, so a regression can be localised to "round
212, PM 17 started rejecting on Q_in" instead of re-running with print
statements.

Design rules:

* **Zero-overhead default.**  Every instrumented call site holds a
  :class:`Tracer` whose base implementation is a no-op with
  ``enabled = False``; hot paths guard emission with ``if tr.enabled:``
  so an untraced run does one attribute load and a falsy branch per
  site.  Tracing never consumes randomness, so even an *enabled* tracer
  leaves the simulation bit-identical (the golden suite asserts this).
* **Typed events.**  Every event kind is registered in
  :data:`EVENT_KINDS`; emitting an unknown kind raises immediately, so a
  typo cannot silently produce an event no reader looks for.
* **Provenance first.**  Every event carries ``ev`` (kind), ``round``
  (simulation round index, warmup included) and ``node`` (the acting
  PM/node id, or ``-1`` for system-level events).

Event vocabulary::

    migration       VM moved between PMs (vm, src, dst, energy_j)
    eviction        one MIGRATE-loop decision (peer, outcome, ...)
    q_pull          learning: VM profiles pulled from a peer and trained
    q_push          aggregation: push-pull Q-table merge with a peer
    pm_sleep        a PM emptied itself and switched off
    pm_wake         a sleeping node was woken
    pm_crash        fault injection crashed a node
    pm_restart      fault injection restarted a crashed node
    overload_enter  a PM crossed into overload (any resource >= capacity)
    overload_exit   a PM left overload

Use :func:`read_trace` to load a trace back; it validates the envelope
so round-tripping is lossless.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Any, Dict, Iterator, List, Union

from repro.util.io import iter_jsonl

__all__ = [
    "EVENT_KINDS",
    "Tracer",
    "NULL_TRACER",
    "JsonlTracer",
    "RecordingTracer",
    "read_trace",
    "load_trace",
]

#: The closed vocabulary of event kinds (see module docstring).
EVENT_KINDS = frozenset(
    {
        "migration",
        "eviction",
        "q_pull",
        "q_push",
        "pm_sleep",
        "pm_wake",
        "pm_crash",
        "pm_restart",
        "overload_enter",
        "overload_exit",
    }
)

#: Keys every event carries, in stable serialisation order.
ENVELOPE_KEYS = ("ev", "round", "node")

#: ``json.dumps(obj, separators=(",", ":"))`` without building an encoder
#: per call: the same encoder settings, bound once.
_encode_compact = json.JSONEncoder(separators=(",", ":")).encode


class Tracer:
    """No-op tracer: the zero-overhead default at every call site.

    Instrumented code holds one of these and guards with
    ``if tracer.enabled:`` — the base class never records anything, so
    the untraced hot path costs a single attribute check.
    """

    #: Call sites branch on this instead of emitting unconditionally.
    enabled: bool = False

    def emit(self, kind: str, round_index: int, node: int, **fields: Any) -> None:
        """Record one event.  The base implementation discards it."""

    def close(self) -> None:
        """Release any underlying resource.  Idempotent."""

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


#: Shared no-op instance installed everywhere by default.
NULL_TRACER = Tracer()


def _check_kind(kind: str) -> None:
    if kind not in EVENT_KINDS:
        raise ValueError(
            f"unknown event kind {kind!r}; registered kinds: {sorted(EVENT_KINDS)}"
        )


def _event_dict(kind: str, round_index: int, node: int, fields: Dict[str, Any]) -> Dict[str, Any]:
    _check_kind(kind)
    for key in ENVELOPE_KEYS:
        if key in fields:
            raise ValueError(f"field {key!r} collides with the event envelope")
    event: Dict[str, Any] = {"ev": kind, "round": int(round_index), "node": int(node)}
    event.update(fields)
    return event


class JsonlTracer(Tracer):
    """Writes one compact JSON object per event to a file or stream.

    Accepts a path (opened lazily, closed by :meth:`close`) or an
    already-open text stream (left open for the caller to manage).
    """

    enabled = True

    def __init__(self, sink: Union[str, Path, IO[str]]) -> None:
        if isinstance(sink, (str, Path)):
            self._fh: IO[str] = open(sink, "w", encoding="utf-8")
            self._owns_fh = True
        else:
            self._fh = sink
            self._owns_fh = False
        self.events_emitted = 0

    def emit(self, kind: str, round_index: int, node: int, **fields: Any) -> None:
        event = _event_dict(kind, round_index, node, fields)
        self._fh.write(_encode_compact(event) + "\n")
        self.events_emitted += 1

    def close(self) -> None:
        if self._owns_fh and not self._fh.closed:
            self._fh.close()


class RecordingTracer(Tracer):
    """Keeps events in memory — the test-friendly tracer."""

    enabled = True

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []

    def emit(self, kind: str, round_index: int, node: int, **fields: Any) -> None:
        self.events.append(_event_dict(kind, round_index, node, fields))

    def of_kind(self, kind: str) -> List[Dict[str, Any]]:
        _check_kind(kind)
        return [e for e in self.events if e["ev"] == kind]


def read_trace(
    source: Union[str, Path, IO[str]], allow_partial_tail: bool = False
) -> Iterator[Dict[str, Any]]:
    """Yield the events of a JSONL trace, validating the envelope.

    Raises ``ValueError`` on a malformed line (bad JSON, missing
    envelope key, or unregistered event kind) with the 1-based line
    number, so a truncated or corrupted trace fails loudly.

    ``allow_partial_tail=True`` tolerates a torn *final* line — the
    state of a live trace whose writer is mid-``write`` (or died there)
    — by stopping before it instead of raising.  A bad line with more
    data after it is corruption either way and still raises, so tail-
    following a live run never silently skips interior damage.
    """
    for lineno, event in iter_jsonl(
        source, allow_partial_tail=allow_partial_tail, where="trace"
    ):
        if not isinstance(event, dict):
            raise ValueError(f"trace line {lineno}: expected an object")
        missing = [k for k in ENVELOPE_KEYS if k not in event]
        if missing:
            raise ValueError(f"trace line {lineno}: missing envelope keys {missing}")
        if event["ev"] not in EVENT_KINDS:
            raise ValueError(
                f"trace line {lineno}: unknown event kind {event['ev']!r}"
            )
        yield event


def load_trace(source: Union[str, Path, IO[str]]) -> List[Dict[str, Any]]:
    """Eagerly read a whole trace (see :func:`read_trace`)."""
    return list(read_trace(source))
