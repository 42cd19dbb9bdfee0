"""Streaming heartbeat sink: one JSON line per cadence tick of a live run.

Post-hoc observability (traces, bench summaries) only becomes
readable after a run finishes — useless for a multi-hour 100k-PM run.
The heartbeat is the live counterpart, and the run's per-round record:
the runner appends one schema-versioned JSONL record per cadence tick
with everything an operator (or ``glap watch``) needs —
round and stage, the telemetry registry's cumulative counter totals,
the latest gauge samples (live Q-cosine), PM activity levels, and ETA
inputs — through the single-``write(2)``
``O_APPEND`` appends of :func:`repro.util.io.append_jsonl`, so a
concurrent tail-reader never sees a torn interior line.  The registry
keeps only totals; a round's counts are the difference of consecutive
ticks of an ``every=1`` stream.

House rule, same as the tracer/profiler/telemetry: the heartbeat reads
clocks but **never the simulation's RNG streams**, so a fully
instrumented run stays bit-identical to the golden digests.  To make
that testable, every record keeps its deterministic payload (round,
stage, counter totals, gauge values, PM counts) at the top level and
quarantines everything wall-clock-derived — elapsed seconds, unix
timestamps — under the ``"timing"`` key.  Two
runs of the same (scenario, seed) produce tick streams identical
modulo ``"timing"``; the golden suite asserts exactly that.

Resume continuity: a tick depends on no state of the writer's.  Its
``counters`` are the registry's totals at that round, and the registry
is checkpointed and restored, so a restored run's ticks are the ones
the uninterrupted run wrote.  :meth:`HeartbeatWriter.start` with
``resumed_from`` set only repairs a torn tail line (the previous process
may have died mid-append) and appends a ``resumed`` marker.  Ticks that
the dead process wrote past its checkpoint are re-written by the
resumed run; the reader keeps the latest tick of each round
(:mod:`repro.obs.watch`), so the stitched stream reads as the
uninterrupted one whichever round the run died in.

The post-mortem: when a multi-hour run dies, the trace that would
explain it is disabled, unflushed or gigabytes of haystack.  The writer
keeps the needle.  :meth:`HeartbeatWriter.wrap` tees the run's tracer
through a bounded ring of the latest typed events (it records even when
no trace file is written), and the driver tells the writer where its
latest checkpoint is.  :meth:`HeartbeatWriter.abort` writes them into
the ``abort`` record.  The header is the run's identity, and the ticks
before the record hold the telemetry, so it needs neither of its own.

Record kinds (all carry ``v`` = :data:`HEARTBEAT_VERSION`)::

    header    first line: run identity + ETA inputs (rounds_total, ...)
    tick      one per cadence tick (see above)
    resumed   a restored run continued this file (``resumed_from``)
    abort     the run died: reason, error, the round of the stream's
              last tick, the checkpoint pointer, the event ring
    complete  the run finished cleanly
"""

from __future__ import annotations

import json
import time
from collections import deque
from pathlib import Path
from typing import IO, Any, Deque, Dict, Iterator, List, Optional, Union

from repro.obs.telemetry import last_samples
from repro.obs.tracer import Tracer, _event_dict
from repro.util.io import append_jsonl, atomic_write_text, iter_jsonl

__all__ = [
    "HEARTBEAT_SCHEMA",
    "HEARTBEAT_VERSION",
    "HEARTBEAT_KINDS",
    "ABORT_REASONS",
    "HeartbeatWriter",
    "read_heartbeat",
    "load_heartbeat",
]

HEARTBEAT_SCHEMA = "glap-heartbeat"
#: Version 2: a tick's ``counters`` are cumulative totals (version 1
#: carried deltas since the previous tick, and is not read).
HEARTBEAT_VERSION = 2

#: The closed vocabulary of record kinds.
HEARTBEAT_KINDS = frozenset({"header", "tick", "resumed", "abort", "complete"})

#: The reasons an ``abort`` record gives: the run driver's failure
#: guard classifies every death into one of them.
ABORT_REASONS = ("invariant_violation", "exception", "sigterm", "sigint")

#: Typed events the ring keeps.
RING_EVENTS = 512


class _RingTee(Tracer):
    """A tracer that records into the writer's ring and forwards to the
    inner one, whose contract (same validated event dicts, same order)
    it keeps.  Enabled even over the null tracer: the ring wants events
    when no trace file is written."""

    enabled = True

    def __init__(self, ring: Deque[Dict[str, Any]], inner: Tracer) -> None:
        self._ring = ring
        self._inner = inner

    def emit(self, kind: str, round_index: int, node: int, **fields: Any) -> None:
        self._ring.append(_event_dict(kind, round_index, node, fields))
        if self._inner.enabled:
            self._inner.emit(kind, round_index, node, **fields)

    def close(self) -> None:
        self._inner.close()


class HeartbeatWriter:
    """Appends the heartbeat stream of one run (see module docstring).

    The run driver (:mod:`repro.experiments.runner`) alone drives it:
    :meth:`start` once before the set-up (or the restore of a resume),
    :meth:`due` + :meth:`tick` after each round, :meth:`checkpoint_saved`
    after each save and restore, :meth:`complete` at the end,
    :meth:`abort` from its failure guard.  ``every`` is the cadence
    in *absolute* rounds (warmup + evaluation share one counter),
    checked against the deterministic round index so resumed runs stay
    phase-aligned.
    """

    def __init__(self, path: Union[str, Path], every: int = 1) -> None:
        if every <= 0:
            raise ValueError(f"heartbeat cadence must be > 0, got {every}")
        self.path = Path(path)
        self.every = int(every)
        #: Ticks the stream holds, one per cadence round: a resume into
        #: the same file counts the ones its checkpoint covers, so the
        #: ``complete`` marker agrees with the de-duplicated stream.
        self.ticks = 0
        self._started = False
        self._t0 = time.perf_counter()
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=RING_EVENTS)
        self._checkpoint: Dict[str, Any] = {}

    # -- lifecycle ----------------------------------------------------------

    @property
    def started(self) -> bool:
        """Whether :meth:`start` has run (ticks are only legal after)."""
        return self._started

    def start(
        self,
        *,
        policy: str,
        n_pms: int,
        n_vms: int,
        seed: int,
        rounds_total: int,
        warmup_rounds: int,
        eval_rounds: int,
        resumed_from: Optional[int] = None,
    ) -> None:
        """Open the stream: write the header, or continue an existing file.

        A fresh run (``resumed_from=None``) truncates any stale file via
        an atomic header write.  A resume repairs a torn tail and appends
        a ``resumed`` marker carrying the evaluation round the run
        continues from.
        """
        self._t0 = time.perf_counter()
        self._started = True
        if resumed_from is not None and self.path.exists() and self.path.stat().st_size:
            # The dead process ticked rounds 0 .. the checkpoint's last;
            # ticks past it are written again from here.
            self.ticks = (warmup_rounds + resumed_from - 1) // self.every + 1
            self._repair_tail()
            append_jsonl(
                {
                    "v": HEARTBEAT_VERSION,
                    "kind": "resumed",
                    "resumed_from": int(resumed_from),
                    "unix_time": time.time(),
                },
                self.path,
            )
            return
        header = {
            "v": HEARTBEAT_VERSION,
            "kind": "header",
            "schema": HEARTBEAT_SCHEMA,
            "policy": str(policy),
            "n_pms": int(n_pms),
            "n_vms": int(n_vms),
            "seed": int(seed),
            "rounds_total": int(rounds_total),
            "warmup_rounds": int(warmup_rounds),
            "eval_rounds": int(eval_rounds),
            "every": self.every,
            "unix_time": time.time(),
        }
        atomic_write_text(json.dumps(header, separators=(",", ":")) + "\n", self.path)

    def _repair_tail(self) -> None:
        """Drop a torn (newline-less) final line left by a dead writer.

        The repaired stream replaces the file atomically, so a process
        killed mid-repair leaves the torn stream, never a lost one.
        """
        data = self.path.read_bytes()
        if not data.endswith(b"\n"):
            atomic_write_text(data[: data.rfind(b"\n") + 1].decode("utf-8"), self.path)

    # -- per-round ----------------------------------------------------------

    def due(self, round_index: int) -> bool:
        """Whether ``round_index`` lands on the cadence."""
        return round_index % self.every == 0

    def tick(
        self,
        *,
        round_index: int,
        stage: str,
        eval_round: Optional[int] = None,
        telemetry: Optional[Any] = None,
        active_pms: Optional[int] = None,
        overloaded_pms: Optional[int] = None,
        shard_imbalance: Optional[float] = None,
    ) -> None:
        """Append one tick record for the round just executed.

        ``telemetry`` is a :class:`~repro.obs.telemetry.TelemetryRegistry`
        (or None): its cumulative ``totals()`` are the tick's
        ``counters``, and the latest sample of every gauge rides along.
        Everything wall-clock-derived goes under ``"timing"`` (see
        module docstring).

        ``shard_imbalance`` is accepted and ignored: the per-shard
        worker timings it reported are gone, and the keyword survives
        only because ``benchmarks/e2e/cell.py`` (frozen for this change)
        still passes ``shard_imbalance=None``.  ROADMAP item 1's
        benchmark-only PR, which reshapes ``timing`` anyway, removes it.
        """
        if not self._started:
            raise RuntimeError("HeartbeatWriter.tick before start()")
        counters: Dict[str, float] = {}
        gauges: Dict[str, Any] = {}
        if telemetry is not None and getattr(telemetry, "enabled", False):
            counters = telemetry.totals()
            gauges = last_samples(telemetry.gauges)
        record: Dict[str, Any] = {
            "v": HEARTBEAT_VERSION,
            "kind": "tick",
            "round": int(round_index),
            "stage": str(stage),
        }
        if eval_round is not None:
            record["eval_round"] = int(eval_round)
        if active_pms is not None:
            record["active_pms"] = int(active_pms)
        if overloaded_pms is not None:
            record["overloaded_pms"] = int(overloaded_pms)
        record["counters"] = counters
        record["gauges"] = gauges
        record["timing"] = {
            "wall_s": time.perf_counter() - self._t0,
            "unix_time": time.time(),
        }
        append_jsonl(record, self.path)
        self.ticks += 1

    # -- post-mortem inputs -------------------------------------------------

    def wrap(self, tracer: Tracer) -> Tracer:
        """Tee ``tracer`` through the event ring (install the result)."""
        return _RingTee(self._ring, tracer)

    @property
    def events(self) -> List[Dict[str, Any]]:
        """The ring's contents, oldest first."""
        return list(self._ring)

    def checkpoint_saved(self, path: Union[str, Path], eval_rounds_done: int) -> None:
        """Point the ``abort`` record at the latest checkpoint."""
        self._checkpoint = {"path": str(path), "eval_rounds_done": int(eval_rounds_done)}

    def _last_tick(self) -> Optional[int]:
        """The round of the stream's last tick since its header or
        ``resumed`` marker, read back from the file: a run killed
        between a tick's append and the return still names that tick.
        None when this run ticked nothing, or the stream cannot be read."""
        last = None
        try:
            for record in read_heartbeat(self.path, allow_partial_tail=True):
                if record["kind"] == "tick":
                    last = int(record["round"])
                elif record["kind"] in ("header", "resumed"):
                    last = None
        except (OSError, ValueError):
            return None
        return last

    # -- terminal markers ---------------------------------------------------

    def abort(self, reason: str, error: Optional[str] = None) -> None:
        """Append the ``abort`` record: the run is dying.

        It carries the post-mortem (see module docstring).  ``reason``
        must be one of :data:`ABORT_REASONS`; any other is refused
        before anything is written.
        """
        if reason not in ABORT_REASONS:
            raise ValueError(f"unknown abort reason {reason!r}; known: {ABORT_REASONS}")
        append_jsonl(
            {
                "v": HEARTBEAT_VERSION,
                "kind": "abort",
                "reason": reason,
                "error": None if error is None else str(error),
                "round": self._last_tick(),
                "checkpoint": self._checkpoint,
                "events": self.events,
                "unix_time": time.time(),
            },
            self.path,
        )

    def complete(self) -> None:
        """Append the clean-completion marker."""
        append_jsonl(
            {
                "v": HEARTBEAT_VERSION,
                "kind": "complete",
                "ticks": self.ticks,
                "timing": {
                    "wall_s": time.perf_counter() - self._t0,
                    "unix_time": time.time(),
                },
            },
            self.path,
        )


def read_heartbeat(
    source: Union[str, Path, IO[str]], allow_partial_tail: bool = False
) -> Iterator[Dict[str, Any]]:
    """Yield validated heartbeat records.

    Validation mirrors :func:`repro.obs.tracer.read_trace`: every record
    must be an object with a supported ``v`` and a known ``kind``, and a
    malformed line raises ``ValueError`` with its 1-based line number —
    except a torn final line under ``allow_partial_tail=True``, which is
    the normal state of a file being appended to right now.
    """
    for lineno, record in iter_jsonl(
        source, allow_partial_tail=allow_partial_tail, where="heartbeat"
    ):
        if not isinstance(record, dict):
            raise ValueError(f"heartbeat line {lineno}: expected an object")
        if record.get("v") != HEARTBEAT_VERSION:
            raise ValueError(
                f"heartbeat line {lineno}: unsupported version {record.get('v')!r} "
                f"(this build reads version {HEARTBEAT_VERSION})"
            )
        if record.get("kind") not in HEARTBEAT_KINDS:
            raise ValueError(
                f"heartbeat line {lineno}: unknown kind {record.get('kind')!r}"
            )
        yield record


def load_heartbeat(
    source: Union[str, Path, IO[str]], allow_partial_tail: bool = True
) -> List[Dict[str, Any]]:
    """Eagerly read a heartbeat stream (tail-tolerant by default —
    the common caller is ``glap watch`` against a live file)."""
    return list(read_heartbeat(source, allow_partial_tail=allow_partial_tail))
