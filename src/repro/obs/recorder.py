"""Flight recorder: a bounded ring of recent events + a post-mortem dump.

When a multi-hour run dies — invariant violation, unhandled exception,
SIGTERM from a scheduler — the artifacts that would explain it (the
trace, the telemetry series) are either disabled, unflushed, or
gigabytes of haystack.  The flight recorder keeps exactly the needle:
a bounded ring buffer of the most recent typed events (teed off the
tracer path, so it works even when no trace file is being written) and,
at dump time, the last-K rounds of telemetry, the run's config
provenance, its RNG stream names, and the latest checkpoint pointer —
one schema-versioned JSON bundle, written atomically, small enough to
attach to a CI artifact or a bug report.

Same house rule as every observer: the recorder allocates memory and
reads clocks but never touches the simulation's RNG streams, so an
instrumented run stays bit-identical to the golden digests (asserted
by the golden suite with the recorder enabled).

The runner triggers :meth:`FlightRecorder.dump` from one failure
funnel: ``InvariantViolation``, any unhandled exception, and — when a
recorder is installed — SIGTERM/SIGINT, which the runner converts into
an exception so the dump happens on the main thread with the ring
intact.
"""

from __future__ import annotations

import time
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, List, Mapping, Optional, Union

from repro.obs.tracer import Tracer, _event_dict
from repro.util.io import atomic_write_json

__all__ = [
    "FLIGHT_SCHEMA",
    "FLIGHT_VERSION",
    "FlightRecorder",
    "load_bundle",
    "validate_bundle",
]

FLIGHT_SCHEMA = "glap-flight"
FLIGHT_VERSION = 1

#: Dump reasons the runner's failure funnel classifies into.
DUMP_REASONS = ("invariant_violation", "exception", "sigterm", "sigint", "manual")


class _RecorderTee(Tracer):
    """A tracer that records into the ring and forwards to the inner one.

    ``enabled`` is True whenever a recorder is installed — the ring
    wants events even when no trace file is being written.  Forwarding
    preserves the inner tracer's contract exactly (same validated
    event dicts, same order).
    """

    enabled = True

    def __init__(self, recorder: "FlightRecorder", inner: Tracer) -> None:
        self._recorder = recorder
        self._inner = inner

    def emit(self, kind: str, round_index: int, node: int, **fields: Any) -> None:
        self._recorder._ring.append(_event_dict(kind, round_index, node, fields))
        if self._inner.enabled:
            self._inner.emit(kind, round_index, node, **fields)

    def close(self) -> None:
        self._inner.close()


class FlightRecorder:
    """Bounded event ring + provenance, dumped as a post-mortem bundle.

    ``capacity`` bounds the event ring; ``telemetry_tail`` bounds how
    many trailing rounds of every telemetry series go into the bundle.
    ``bundle_path`` is where :meth:`dump` writes.
    """

    def __init__(
        self,
        bundle_path: Union[str, Path],
        capacity: int = 512,
        telemetry_tail: int = 64,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        if telemetry_tail <= 0:
            raise ValueError(f"telemetry_tail must be > 0, got {telemetry_tail}")
        self.bundle_path = Path(bundle_path)
        self.capacity = int(capacity)
        self.telemetry_tail = int(telemetry_tail)
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self._config: Dict[str, Any] = {}
        self._telemetry: Optional[Any] = None
        self._stream_names: List[str] = []
        self._checkpoint: Dict[str, Any] = {}
        self._heartbeat_path: Optional[str] = None
        self.dumped: Optional[str] = None

    # -- wiring -------------------------------------------------------------

    def wrap(self, tracer: Tracer) -> Tracer:
        """Tee ``tracer`` through the ring (install the result instead)."""
        return _RecorderTee(self, tracer)

    def bind(
        self,
        *,
        config: Optional[Mapping[str, Any]] = None,
        telemetry: Optional[Any] = None,
        stream_names: Optional[List[str]] = None,
        heartbeat_path: Optional[Union[str, Path]] = None,
    ) -> None:
        """Attach provenance as the runner learns it (idempotent merge)."""
        if config:
            self._config.update(config)
        if telemetry is not None:
            self._telemetry = telemetry
        if stream_names is not None:
            self._stream_names = list(stream_names)
        if heartbeat_path is not None:
            self._heartbeat_path = str(heartbeat_path)

    def checkpoint_saved(self, path: Union[str, Path], eval_rounds_done: int) -> None:
        """Record the latest checkpoint pointer (runner calls per save)."""
        self._checkpoint = {
            "path": str(path),
            "eval_rounds_done": int(eval_rounds_done),
        }

    @property
    def events(self) -> List[Dict[str, Any]]:
        """The current ring contents, oldest first."""
        return list(self._ring)

    # -- dumping ------------------------------------------------------------

    def _telemetry_tail(self) -> Dict[str, Any]:
        telemetry = self._telemetry
        if telemetry is None or not getattr(telemetry, "enabled", False):
            return {}
        k = self.telemetry_tail
        return {
            "rounds": [int(r) for r in telemetry.rounds[-k:]],
            "series": {
                key: [float(x) for x in values[-k:]]
                for key, values in telemetry.series.items()
            },
            "gauges": {
                name: {
                    "rounds": [int(r) for r in s["rounds"][-k:]],
                    "values": [float(v) for v in s["values"][-k:]],
                }
                for name, s in telemetry.gauges.items()
            },
            "totals": dict(telemetry.totals()),
        }

    def dump(self, reason: str, error: Optional[str] = None) -> Path:
        """Write the post-mortem bundle atomically; returns its path.

        Idempotent in the useful direction: a second dump overwrites the
        first (the later failure context wins), and the bundle is always
        complete-or-absent thanks to the atomic write.  ``reason`` must
        be one of :data:`DUMP_REASONS`.
        """
        if reason not in DUMP_REASONS:
            raise ValueError(
                f"unknown dump reason {reason!r}; known: {DUMP_REASONS}"
            )
        bundle: Dict[str, Any] = {
            "schema": FLIGHT_SCHEMA,
            "version": FLIGHT_VERSION,
            "reason": reason,
            "unix_time": time.time(),
            "config": dict(self._config),
            "rng_streams": list(self._stream_names),
            "events": self.events,
            "telemetry_tail": self._telemetry_tail(),
            "checkpoint": dict(self._checkpoint),
        }
        if error is not None:
            bundle["error"] = str(error)
        if self._heartbeat_path is not None:
            bundle["heartbeat_path"] = self._heartbeat_path
        atomic_write_json(bundle, self.bundle_path, indent=2, sort_keys=True)
        self.dumped = reason
        return self.bundle_path


def validate_bundle(bundle: Mapping[str, Any]) -> None:
    """Schema-validate a post-mortem bundle; raises ``ValueError``."""
    if bundle.get("schema") != FLIGHT_SCHEMA:
        raise ValueError(
            f"not a flight bundle: schema={bundle.get('schema')!r} "
            f"(expected {FLIGHT_SCHEMA!r})"
        )
    if bundle.get("version") != FLIGHT_VERSION:
        raise ValueError(
            f"flight bundle version {bundle.get('version')!r} unsupported "
            f"(this build reads version {FLIGHT_VERSION})"
        )
    reason = bundle.get("reason")
    if not isinstance(reason, str) or not reason:
        raise ValueError("flight bundle has no dump reason")
    if reason not in DUMP_REASONS:
        raise ValueError(
            f"flight bundle dump reason {reason!r} is not one of {DUMP_REASONS}"
        )
    for key, kind in (
        ("config", dict),
        ("rng_streams", list),
        ("events", list),
        ("telemetry_tail", dict),
        ("checkpoint", dict),
    ):
        if not isinstance(bundle.get(key), kind):
            raise ValueError(
                f"flight bundle field {key!r} missing or not a {kind.__name__}"
            )
    for i, event in enumerate(bundle["events"]):
        if not isinstance(event, dict) or "ev" not in event or "round" not in event:
            raise ValueError(f"flight bundle event {i} is not a typed event")


def load_bundle(path: Union[str, Path]) -> Dict[str, Any]:
    """Load and validate a post-mortem bundle."""
    import json

    bundle = json.loads(Path(path).read_text())
    if not isinstance(bundle, dict):
        raise ValueError(f"{path}: flight bundle must be a JSON object")
    validate_bundle(bundle)
    return bundle
