"""Streaming heartbeat sink: one JSON line per cadence tick of a live run.

Post-hoc observability (telemetry series, traces, bench summaries) only
becomes readable after a run finishes — useless for a multi-hour
100k-PM run.  The heartbeat is the live
counterpart: the runner appends one schema-versioned JSONL record per
cadence tick with everything an operator (or ``glap watch``) needs —
round and stage, telemetry counter deltas since the previous tick, the
latest gauge samples (live Q-cosine), PM activity levels, and ETA
inputs — through the single-``write(2)``
``O_APPEND`` appends of :func:`repro.util.io.append_jsonl`, so a
concurrent tail-reader never sees a torn interior line.

House rule, same as the tracer/profiler/telemetry: the heartbeat reads
clocks but **never the simulation's RNG streams**, so a fully
instrumented run stays bit-identical to the golden digests.  To make
that testable, every record keeps its deterministic payload (round,
stage, counter deltas, gauge values, PM counts) at the top level and
quarantines everything wall-clock-derived — elapsed seconds, unix
timestamps — under the ``"timing"`` key.  Two
runs of the same (scenario, seed) produce tick streams identical
modulo ``"timing"``; the golden suite asserts exactly that.

Resume continuity: a restored run calls :meth:`HeartbeatWriter.start`
with ``resumed_from`` set.  The writer repairs a torn tail line (the
previous process may have died mid-append), reconstructs the cumulative
counter baseline by summing the surviving ticks' deltas, appends a
``resumed`` marker, and continues the same file — so a run interrupted
at a checkpoint boundary yields a tick stream identical to the
uninterrupted run's, with one extra marker line.

Record kinds (all carry ``v`` = :data:`HEARTBEAT_VERSION`)::

    header    first line: run identity + ETA inputs (rounds_total, ...)
    tick      one per cadence tick (see above)
    resumed   a restored run continued this file (``resumed_from``)
    abort     the run died: invariant violation / exception / signal
    complete  the run finished cleanly
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import IO, Any, Dict, Iterator, List, Optional, Union

from repro.util.io import append_jsonl, atomic_write_text, iter_jsonl

__all__ = [
    "HEARTBEAT_SCHEMA",
    "HEARTBEAT_VERSION",
    "HEARTBEAT_KINDS",
    "HeartbeatWriter",
    "read_heartbeat",
    "load_heartbeat",
]

HEARTBEAT_SCHEMA = "glap-heartbeat"
HEARTBEAT_VERSION = 1

#: The closed vocabulary of record kinds.
HEARTBEAT_KINDS = frozenset({"header", "tick", "resumed", "abort", "complete"})


class HeartbeatWriter:
    """Appends the heartbeat stream of one run (see module docstring).

    The runner drives it: :meth:`start` once before the warmup loop
    (or on resume), :meth:`due` + :meth:`tick` after each round,
    :meth:`complete` at the end, :meth:`abort` from the flight
    recorder's failure path.  ``every`` is the cadence in *absolute*
    rounds (warmup + evaluation share one counter), checked against the
    deterministic round index so resumed runs stay phase-aligned.
    """

    def __init__(self, path: Union[str, Path], every: int = 1) -> None:
        if every <= 0:
            raise ValueError(f"heartbeat cadence must be > 0, got {every}")
        self.path = Path(path)
        self.every = int(every)
        self.ticks_written = 0
        self._started = False
        self._t0 = time.perf_counter()
        #: Cumulative counter totals at the previous tick (delta base).
        self._prev: Dict[str, float] = {}

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
        an atomic header write.  A resume repairs a torn tail, rebuilds
        the counter-delta baseline from the surviving ticks, and appends
        a ``resumed`` marker carrying the evaluation round the run
        continues from.
        """
        self._t0 = time.perf_counter()
        self._started = True
        if resumed_from is not None and self.path.exists() and self.path.stat().st_size:
            self._repair_tail()
            self._rebuild_baseline()
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
        """Drop a torn (newline-less) final line left by a dead writer."""
        data = self.path.read_bytes()
        if data and not data.endswith(b"\n"):
            idx = data.rfind(b"\n")
            self.path.write_bytes(data[: idx + 1] if idx >= 0 else b"")

    def _rebuild_baseline(self) -> None:
        """Recover cumulative totals at the last tick by summing deltas.

        Each tick stores counter *deltas* since its predecessor, so the
        per-key sum over every surviving tick equals the cumulative
        total at the last tick — the exact baseline the next tick's
        deltas must be computed against for the stream to continue as
        if never interrupted.
        """
        prev: Dict[str, float] = {}
        for record in read_heartbeat(self.path, allow_partial_tail=True):
            if record.get("kind") != "tick":
                continue
            for key, delta in record.get("counters", {}).items():
                prev[key] = prev.get(key, 0.0) + float(delta)
        self._prev = prev

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
        (or None): its cumulative totals are snapshotted and stored as
        deltas since the previous tick, and the latest sample of every
        gauge rides along.  Everything wall-clock-derived goes under
        ``"timing"`` (see module docstring).

        ``shard_imbalance`` is accepted and ignored: the per-shard
        worker timings it reported are gone, and the keyword survives
        only because ``benchmarks/e2e/cell.py`` (frozen for this change)
        still passes ``shard_imbalance=None``.  ROADMAP item 1's
        benchmark-only PR, which reshapes ``timing`` anyway, removes it.
        """
        if not self._started:
            raise RuntimeError("HeartbeatWriter.tick before start()")
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        if telemetry is not None and getattr(telemetry, "enabled", False):
            totals = telemetry.totals()
            for key, value in totals.items():
                delta = value - self._prev.get(key, 0.0)
                if delta != 0.0:
                    counters[key] = delta
            self._prev = dict(totals)
            for name, samples in telemetry.gauges.items():
                if samples["values"]:
                    gauges[name] = float(samples["values"][-1])
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
        self.ticks_written += 1

    # -- terminal markers ---------------------------------------------------

    def abort(
        self,
        reason: str,
        error: Optional[str] = None,
        round_index: Optional[int] = None,
    ) -> None:
        """Append an ``abort`` marker (the run is dying)."""
        record: Dict[str, Any] = {
            "v": HEARTBEAT_VERSION,
            "kind": "abort",
            "reason": str(reason),
            "unix_time": time.time(),
        }
        if error is not None:
            record["error"] = str(error)
        if round_index is not None:
            record["round"] = int(round_index)
        append_jsonl(record, self.path)

    def complete(self) -> None:
        """Append the clean-completion marker."""
        append_jsonl(
            {
                "v": HEARTBEAT_VERSION,
                "kind": "complete",
                "ticks": self.ticks_written,
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
