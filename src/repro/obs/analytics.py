"""Trace analytics: columnar loading and run-health checks.

Everything ``glap analyze`` knows lives here.  A JSONL trace (written by
:class:`~repro.obs.tracer.JsonlTracer`) is loaded *columnar* — one
array per field per event kind, built from the streaming
:func:`~repro.obs.tracer.read_trace` iterator so multi-GB traces never
materialise as a list of dicts — and the derived analyses run on those
columns:

* per-kind event counts;
* the migration flow matrix (source PM x destination PM);
* overload episodes (enter/exit pairing) and their durations;
* conservation checks: every ``eviction outcome="migrated"`` event must
  pair 1:1 with a ``migration`` event on the same (round, vm, src,
  dst); overload enter/exit must alternate per PM; a PM must not sleep
  twice without waking; and — when a telemetry section is supplied —
  messages sent must equal delivered + dropped, overall and per kind;
* trace diffing: per-kind totals and the first divergent round.

:func:`health_report` bundles the checks into one machine-readable
verdict; :func:`format_health_report` renders it for the terminal with
:mod:`repro.util.asciiplot` convergence and overload curves.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import IO, Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.obs.tracer import read_trace
from repro.util.asciiplot import sparkline

__all__ = [
    "TraceFrame",
    "load_frame",
    "frame_from_events",
    "event_counts",
    "migration_matrix",
    "overload_episodes",
    "check_migration_pairing",
    "check_sleep_wake",
    "check_message_conservation",
    "overloaded_per_round",
    "diff_frames",
    "health_report",
    "format_health_report",
]

#: Envelope fields every event carries (copied into every kind's columns).
_ENVELOPE = ("round", "node")

#: Synthetic column: the event's global position in the trace.  Kept so
#: order-sensitive checks (sleep/wake, overload alternation) can restore
#: file order *across* kinds within a round.
_SEQ = "_seq"


class TraceFrame:
    """A trace held column-wise, grouped by event kind.

    ``frame.columns[kind][field]`` is a list (or, for the envelope
    fields, a ``numpy`` int64 array) with one entry per event of that
    kind, in file order.  Fields missing from an individual event are
    filled with ``None`` so columns of one kind always align.
    """

    def __init__(self, columns: Dict[str, Dict[str, Any]], n_events: int) -> None:
        self.columns = columns
        self.n_events = n_events

    @property
    def kinds(self) -> List[str]:
        return sorted(self.columns)

    def count(self, kind: str) -> int:
        cols = self.columns.get(kind)
        return len(cols["round"]) if cols else 0

    def column(self, kind: str, field: str) -> Any:
        """The ``field`` column of ``kind`` ([] when the kind is absent)."""
        cols = self.columns.get(kind)
        if cols is None:
            return []
        if field not in cols:
            raise KeyError(f"trace has no field {field!r} on kind {kind!r}")
        return cols[field]


def _build_frame(events: Iterable[Mapping[str, Any]]) -> TraceFrame:
    raw: Dict[str, Dict[str, List[Any]]] = {}
    counts: Dict[str, int] = {}
    n_events = 0
    for event in events:
        kind = event["ev"]
        cols = raw.get(kind)
        if cols is None:
            cols = raw[kind] = {name: [] for name in (*_ENVELOPE, _SEQ)}
            counts[kind] = 0
        n_seen = counts[kind]
        cols[_SEQ].append(n_events)
        for key, value in event.items():
            if key == "ev":
                continue
            col = cols.get(key)
            if col is None:
                # A field first seen mid-stream: backfill so it aligns.
                col = cols[key] = [None] * n_seen
            col.append(value)
        for key, col in cols.items():
            if len(col) == n_seen:
                col.append(None)
        counts[kind] = n_seen + 1
        n_events += 1
    columns: Dict[str, Dict[str, Any]] = {}
    for kind, cols in raw.items():
        out: Dict[str, Any] = {}
        for key, col in cols.items():
            if key in _ENVELOPE or key == _SEQ:
                out[key] = np.asarray(col, dtype=np.int64)
            else:
                out[key] = col
        columns[kind] = out
    return TraceFrame(columns, n_events)


def load_frame(source: Union[str, Path, IO[str]]) -> TraceFrame:
    """Columnar-load a JSONL trace via the streaming reader."""
    return _build_frame(read_trace(source))


def frame_from_events(events: Iterable[Mapping[str, Any]]) -> TraceFrame:
    """Build a frame from in-memory events (e.g. a RecordingTracer's)."""
    return _build_frame(events)


# -- descriptive analyses -----------------------------------------------------


def event_counts(frame: TraceFrame) -> Dict[str, int]:
    """Events per kind."""
    return {kind: frame.count(kind) for kind in frame.kinds}


def migration_matrix(
    frame: TraceFrame, n_pms: Optional[int] = None
) -> np.ndarray:
    """Flow matrix: ``M[src, dst]`` = migrations from src to dst."""
    if frame.count("migration") == 0:
        size = n_pms if n_pms is not None else 0
        return np.zeros((size, size), dtype=np.int64)
    src = np.asarray(frame.column("migration", "node"), dtype=np.int64)
    dst = np.asarray(frame.column("migration", "dst"), dtype=np.int64)
    size = n_pms if n_pms is not None else int(max(src.max(), dst.max())) + 1
    matrix = np.zeros((size, size), dtype=np.int64)
    np.add.at(matrix, (src, dst), 1)
    return matrix


def overload_episodes(
    frame: TraceFrame,
) -> Tuple[List[Tuple[int, int, Optional[int]]], List[str]]:
    """Pair ``overload_enter``/``overload_exit`` into episodes.

    Returns ``(episodes, violations)`` where each episode is
    ``(pm, enter_round, exit_round_or_None)`` — ``None`` marks an
    episode still open when the trace ends.  Violations are alternation
    breaks: an exit without a matching enter, or a second enter while
    one is open.
    """
    marks: List[Tuple[int, int, int, int]] = []  # (round, seq, pm, +1/-1)
    for kind, delta in (("overload_enter", 1), ("overload_exit", -1)):
        if not frame.count(kind):
            continue
        rounds = frame.column(kind, "round")
        nodes = frame.column(kind, "node")
        seqs = frame.column(kind, _SEQ)
        for r, s, pm in zip(rounds, seqs, nodes):
            marks.append((int(r), int(s), int(pm), delta))
    marks.sort(key=lambda m: (m[0], m[1]))  # round, then file order within it
    open_since: Dict[int, int] = {}
    episodes: List[Tuple[int, int, Optional[int]]] = []
    violations: List[str] = []
    for r, _, pm, delta in marks:
        if delta > 0:
            if pm in open_since:
                violations.append(
                    f"PM {pm}: overload_enter at round {r} while an episode "
                    f"from round {open_since[pm]} is still open"
                )
            open_since[pm] = r
        else:
            start = open_since.pop(pm, None)
            if start is None:
                violations.append(
                    f"PM {pm}: overload_exit at round {r} without a "
                    "matching overload_enter"
                )
            else:
                episodes.append((pm, start, r))
    for pm, start in sorted(open_since.items()):
        episodes.append((pm, start, None))
    episodes.sort(key=lambda e: (e[1], e[0]))
    return episodes, violations


def overloaded_per_round(frame: TraceFrame) -> Tuple[np.ndarray, np.ndarray]:
    """The number of simultaneously overloaded PMs per round.

    Returns ``(rounds, counts)`` spanning the trace's round range (empty
    arrays when the trace carries no overload events).
    """
    episodes, _ = overload_episodes(frame)
    if not episodes:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    last = max(e[2] if e[2] is not None else e[1] for e in episodes)
    first = min(e[1] for e in episodes)
    rounds = np.arange(first, last + 1, dtype=np.int64)
    deltas = np.zeros(len(rounds) + 1, dtype=np.int64)
    for _, start, end in episodes:
        deltas[start - first] += 1
        if end is not None:
            deltas[end - first] -= 1
    return rounds, deltas[:-1].cumsum()


# -- conservation checks ------------------------------------------------------


def check_migration_pairing(frame: TraceFrame) -> List[str]:
    """Every accepted eviction must have its migration, and vice versa.

    The GLAP consolidation protocol emits ``eviction`` with
    ``outcome="migrated"`` immediately before the data centre's
    ``migration`` event, so the two multisets of (round, vm, src, dst)
    must match exactly.  Traces with *no* eviction events at all
    (baseline policies migrate without an eviction decision loop) are
    exempt from the migration-side check.
    """
    violations: List[str] = []
    accepted: Counter = Counter()
    if frame.count("eviction"):
        rounds = frame.column("eviction", "round")
        nodes = frame.column("eviction", "node")
        vms = frame.column("eviction", "vm")
        peers = frame.column("eviction", "peer")
        outcomes = frame.column("eviction", "outcome")
        for i in range(len(rounds)):
            if outcomes[i] == "migrated":
                accepted[
                    (int(rounds[i]), int(vms[i]), int(nodes[i]), int(peers[i]))
                ] += 1
    migrations: Counter = Counter()
    if frame.count("migration"):
        rounds = frame.column("migration", "round")
        nodes = frame.column("migration", "node")
        vms = frame.column("migration", "vm")
        dsts = frame.column("migration", "dst")
        for i in range(len(rounds)):
            migrations[
                (int(rounds[i]), int(vms[i]), int(nodes[i]), int(dsts[i]))
            ] += 1
    for key, n in sorted(accepted.items()):
        have = migrations.get(key, 0)
        if have < n:
            r, vm, src, dst = key
            violations.append(
                f"eviction accepted {n}x but migrated {have}x: VM {vm} "
                f"PM {src}->{dst} at round {r}"
            )
    if accepted:  # eviction-emitting policy: migrations must pair back
        for key, n in sorted(migrations.items()):
            have = accepted.get(key, 0)
            if have < n:
                r, vm, src, dst = key
                violations.append(
                    f"migration without accepted eviction: VM {vm} "
                    f"PM {src}->{dst} at round {r} ({n}x vs {have}x)"
                )
    return violations


def check_sleep_wake(frame: TraceFrame) -> List[str]:
    """A PM must not go to sleep twice without waking in between.

    Wake-side events are ``pm_wake`` and ``pm_restart`` (a restarted PM
    re-enters the population awake or asleep, so a restart resets the
    tracking to "unknown" rather than asserting a state).  A wake
    without a prior sleep is legal — ``wake(recover=True)`` revives
    *failed* nodes that never slept.
    """
    marks: List[Tuple[int, int, int, str]] = []
    for kind in ("pm_sleep", "pm_wake", "pm_restart", "pm_crash"):
        if not frame.count(kind):
            continue
        for r, s, pm in zip(
            frame.column(kind, "round"),
            frame.column(kind, _SEQ),
            frame.column(kind, "node"),
        ):
            marks.append((int(r), int(s), int(pm), kind))
    marks.sort(key=lambda m: (m[0], m[1]))  # round, then file order within it
    asleep: Dict[int, int] = {}  # pm -> round it slept
    violations: List[str] = []
    for r, _, pm, kind in marks:
        if kind == "pm_sleep":
            if pm in asleep:
                violations.append(
                    f"PM {pm}: pm_sleep at round {r} while already asleep "
                    f"since round {asleep[pm]}"
                )
            asleep[pm] = r
        else:  # pm_wake / pm_restart / pm_crash all clear tracking
            asleep.pop(pm, None)
    return violations


def check_message_conservation(totals: Mapping[str, float]) -> List[str]:
    """``sent == delivered + dropped`` overall and for every kind.

    ``totals`` is the flat counter map from a telemetry section (keys
    ``net/sent``, ``net/delivered``, ``net/dropped`` plus the per-kind
    ``net/sent/<kind>`` variants).  Returns one violation string per
    broken identity; an empty map passes (no telemetry = nothing to
    check).
    """
    violations: List[str] = []

    def check_one(label: str, sent_key: str, delivered_key: str, dropped_key: str) -> None:
        sent = totals.get(sent_key)
        if sent is None:
            return
        delivered = totals.get(delivered_key, 0.0)
        dropped = totals.get(dropped_key, 0.0)
        if sent != delivered + dropped:
            violations.append(
                f"message conservation broken for {label}: "
                f"sent={sent:g} != delivered={delivered:g} + dropped={dropped:g}"
            )

    check_one("all kinds", "net/sent", "net/delivered", "net/dropped")
    kinds = sorted(
        key[len("net/sent/"):]
        for key in totals
        if key.startswith("net/sent/")
    )
    for kind in kinds:
        check_one(
            kind, f"net/sent/{kind}", f"net/delivered/{kind}", f"net/dropped/{kind}"
        )
    return violations


# -- trace diffing ------------------------------------------------------------


def diff_frames(a: TraceFrame, b: TraceFrame) -> Dict[str, Any]:
    """Structural diff of two traces.

    Returns per-kind event-count deltas (B minus A), the first round at
    which the per-round per-kind counts diverge (``None`` when they
    never do) and an ``identical`` verdict covering both.
    """
    counts_a, counts_b = event_counts(a), event_counts(b)
    deltas = {
        kind: counts_b.get(kind, 0) - counts_a.get(kind, 0)
        for kind in sorted(set(counts_a) | set(counts_b))
        if counts_b.get(kind, 0) != counts_a.get(kind, 0)
    }

    def per_round(frame: TraceFrame) -> Dict[int, Counter]:
        table: Dict[int, Counter] = {}
        for kind in frame.kinds:
            for r in frame.column(kind, "round"):
                table.setdefault(int(r), Counter())[kind] += 1
        return table

    table_a, table_b = per_round(a), per_round(b)
    first_divergence: Optional[int] = None
    for r in sorted(set(table_a) | set(table_b)):
        if table_a.get(r, Counter()) != table_b.get(r, Counter()):
            first_divergence = r
            break
    return {
        "identical": not deltas and first_divergence is None,
        "count_deltas": deltas,
        "first_divergence_round": first_divergence,
        "events_a": a.n_events,
        "events_b": b.n_events,
    }


# -- the health verdict -------------------------------------------------------


def health_report(
    frame: Optional[TraceFrame] = None,
    telemetry: Optional[Mapping[str, Any]] = None,
    min_convergence: Optional[float] = None,
) -> Dict[str, Any]:
    """Run every applicable check; returns the machine-readable verdict.

    ``frame`` is a loaded trace (event-level checks), ``telemetry`` a
    summary's telemetry section (conservation + convergence); either may
    be omitted and the corresponding checks are skipped.
    ``min_convergence`` turns a final Q-table cosine similarity below
    the threshold — or missing convergence data — into a violation.
    """
    if frame is None and telemetry is None:
        raise ValueError("health_report needs a trace frame or a telemetry section")
    report: Dict[str, Any] = {"version": 1, "checks_run": [], "violations": []}

    def fail(check: str, detail: str) -> None:
        report["violations"].append({"check": check, "detail": detail})

    if frame is not None:
        report["events"] = event_counts(frame)
        report["checks_run"] += ["migration_pairing", "overload_alternation", "sleep_wake"]
        for detail in check_migration_pairing(frame):
            fail("migration_pairing", detail)
        episodes, alternation = overload_episodes(frame)
        for detail in alternation:
            fail("overload_alternation", detail)
        for detail in check_sleep_wake(frame):
            fail("sleep_wake", detail)
        durations = [end - start for _, start, end in episodes if end is not None]
        report["overload"] = {
            "episodes": len(episodes),
            "open_at_end": sum(1 for e in episodes if e[2] is None),
            "mean_duration_rounds": (
                float(np.mean(durations)) if durations else 0.0
            ),
            "max_duration_rounds": max(durations) if durations else 0,
        }
        matrix = migration_matrix(frame)
        report["migrations"] = {
            "total": int(matrix.sum()),
            "distinct_routes": int(np.count_nonzero(matrix)),
        }

    if telemetry is not None:
        totals = telemetry.get("totals", {})
        report["checks_run"].append("message_conservation")
        for detail in check_message_conservation(totals):
            fail("message_conservation", detail)
        gauges = telemetry.get("gauges", {})
        convergence = next(
            (g for name, g in sorted(gauges.items()) if name.endswith("q_cosine")),
            None,
        )
        if convergence is not None and convergence.get("values"):
            report["convergence"] = {
                "rounds": list(convergence["rounds"]),
                "values": [float(v) for v in convergence["values"]],
                "final": float(convergence["values"][-1]),
            }
        report["telemetry_totals"] = dict(totals)

    if min_convergence is not None:
        report["checks_run"].append("convergence_threshold")
        final = report.get("convergence", {}).get("final")
        if final is None:
            fail(
                "convergence_threshold",
                "no Q-table convergence gauge found (run with telemetry "
                "and a GLAP policy to sample it)",
            )
        elif final < min_convergence:
            fail(
                "convergence_threshold",
                f"final Q-table cosine similarity {final:.6f} is below "
                f"the required {min_convergence:g}",
            )

    report["healthy"] = not report["violations"]
    return report


def format_health_report(
    report: Mapping[str, Any], frame: Optional[TraceFrame] = None
) -> str:
    """Terminal rendering of :func:`health_report` with ASCII curves."""
    lines: List[str] = []
    verdict = "HEALTHY" if report.get("healthy") else "UNHEALTHY"
    lines.append(f"run health: {verdict}  (checks: {', '.join(report['checks_run'])})")

    events = report.get("events")
    if events:
        total = sum(events.values())
        parts = "  ".join(f"{kind}={n}" for kind, n in sorted(events.items()))
        lines.append(f"events: {total} total  {parts}")

    migrations = report.get("migrations")
    if migrations:
        lines.append(
            f"migrations: {migrations['total']} over "
            f"{migrations['distinct_routes']} distinct src->dst routes"
        )

    overload = report.get("overload")
    if overload:
        lines.append(
            f"overload episodes: {overload['episodes']} "
            f"(open at end: {overload['open_at_end']}, "
            f"mean {overload['mean_duration_rounds']:.1f} rounds, "
            f"max {overload['max_duration_rounds']})"
        )
    if frame is not None:
        rounds, counts = overloaded_per_round(frame)
        if len(rounds):
            lines.append(
                f"overloaded PMs  |{sparkline(counts.astype(float))}| "
                f"rounds {int(rounds[0])}-{int(rounds[-1])}, peak {int(counts.max())}"
            )

    convergence = report.get("convergence")
    if convergence:
        values = convergence["values"]
        lines.append(
            f"Q-table cosine  |{sparkline(values, lo=0.0, hi=1.0)}| "
            f"final {convergence['final']:.4f} "
            f"(sampled rounds {convergence['rounds'][0]}-{convergence['rounds'][-1]})"
        )

    totals = report.get("telemetry_totals")
    if totals:
        sent = totals.get("net/sent")
        if sent is not None:
            lines.append(
                f"messages: sent={totals.get('net/sent', 0):.0f} "
                f"delivered={totals.get('net/delivered', 0):.0f} "
                f"dropped={totals.get('net/dropped', 0):.0f}"
            )

    violations = report.get("violations", [])
    if violations:
        lines.append(f"{len(violations)} violation(s):")
        for v in violations:
            lines.append(f"  [{v['check']}] {v['detail']}")
    else:
        lines.append("0 violations")
    return "\n".join(lines)


def format_diff(diff: Mapping[str, Any]) -> str:
    """Terminal rendering of :func:`diff_frames`."""
    if diff["identical"]:
        return (
            f"traces identical: {diff['events_a']} events, matching "
            "per-round per-kind counts"
        )
    lines = [f"traces differ: {diff['events_a']} vs {diff['events_b']} events"]
    for kind, delta in sorted(diff["count_deltas"].items()):
        lines.append(f"  {kind}: {delta:+d}")
    if diff["first_divergence_round"] is not None:
        lines.append(
            f"first divergent round: {diff['first_divergence_round']}"
        )
    return "\n".join(lines)
