"""Trace analytics: the run-health checks behind ``glap analyze``.

A trace is its events.  Every analysis here takes an iterable of event
dicts — what :func:`~repro.obs.tracer.read_trace` streams from a JSONL
trace (written by :class:`~repro.obs.tracer.JsonlTracer`) and what a
:class:`~repro.obs.tracer.RecordingTracer` holds — and reads it once:

* per-kind event counts;
* the migration flow matrix (source PM x destination PM);
* overload episodes (enter/exit pairing) and their durations;
* conservation checks: every ``eviction outcome="migrated"`` event must
  pair 1:1 with a ``migration`` event on the same (round, vm, src,
  dst); overload enter/exit must alternate per PM; a PM must not sleep
  twice without waking; and — when a telemetry section is supplied —
  messages sent must equal delivered + dropped, overall and per kind;
* trace diffing: per-kind totals and the first divergent round.

The order-sensitive checks (overload alternation, sleep/wake) sort the
events they read by round; the sort is stable, so events of one round
keep their file order.

:func:`health_report` bundles the checks into one machine-readable
verdict, reading the trace once and keeping only the events a check
reads; :func:`format_health_report` renders it for the terminal with
:mod:`repro.util.asciiplot` convergence and overload curves.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.util.asciiplot import sparkline

__all__ = [
    "event_counts",
    "migration_matrix",
    "overload_episodes",
    "check_migration_pairing",
    "check_sleep_wake",
    "check_message_conservation",
    "overloaded_per_round",
    "diff_traces",
    "health_report",
    "format_health_report",
]

Event = Mapping[str, Any]
Episode = Tuple[int, int, Optional[int]]

_OVERLOAD = ("overload_enter", "overload_exit")
_PM_STATE = ("pm_sleep", "pm_wake", "pm_restart", "pm_crash")
#: Kinds the health checks read (besides accepted evictions).
_CHECKED = frozenset(("migration", *_OVERLOAD, *_PM_STATE))

_by_round = itemgetter("round")


def _accepted(event: Event) -> bool:
    return event["ev"] == "eviction" and event.get("outcome") == "migrated"


# -- descriptive analyses -----------------------------------------------------


def event_counts(events: Iterable[Event]) -> Dict[str, int]:
    """Events per kind."""
    counts = Counter(event["ev"] for event in events)
    return {kind: counts[kind] for kind in sorted(counts)}


def migration_matrix(
    events: Iterable[Event], n_pms: Optional[int] = None
) -> np.ndarray:
    """Flow matrix: ``M[src, dst]`` = migrations from src to dst."""
    routes = [(int(e["node"]), int(e["dst"])) for e in events if e["ev"] == "migration"]
    if n_pms is None:
        n_pms = max((max(route) for route in routes), default=-1) + 1
    matrix = np.zeros((n_pms, n_pms), dtype=np.int64)
    if routes:
        src, dst = zip(*routes)
        np.add.at(matrix, (src, dst), 1)
    return matrix


def overload_episodes(events: Iterable[Event]) -> Tuple[List[Episode], List[str]]:
    """Pair ``overload_enter``/``overload_exit`` into episodes.

    Returns ``(episodes, violations)`` where each episode is
    ``(pm, enter_round, exit_round_or_None)`` — ``None`` marks an
    episode still open when the trace ends.  Violations are alternation
    breaks: an exit without a matching enter, or a second enter while
    one is open.
    """
    marks = sorted((e for e in events if e["ev"] in _OVERLOAD), key=_by_round)
    open_since: Dict[int, int] = {}
    episodes: List[Episode] = []
    violations: List[str] = []
    for event in marks:
        r, pm = int(event["round"]), int(event["node"])
        if event["ev"] == "overload_enter":
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


def overloaded_per_round(
    episodes: List[Episode],
) -> Tuple[np.ndarray, np.ndarray]:
    """The number of simultaneously overloaded PMs per round.

    ``episodes`` is :func:`overload_episodes`' first result.  Returns
    ``(rounds, counts)`` spanning the episodes' round range (empty
    arrays when there are none).
    """
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


def check_migration_pairing(events: Iterable[Event]) -> List[str]:
    """Every accepted eviction must have its migration, and vice versa.

    The GLAP consolidation protocol emits ``eviction`` with
    ``outcome="migrated"`` immediately before the data centre's
    ``migration`` event, so the two multisets of (round, vm, src, dst)
    must match exactly.  Traces with no *accepted* eviction (baseline
    policies migrate without an eviction decision loop) are exempt from
    the migration-side check.
    """
    accepted: Counter = Counter()
    migrations: Counter = Counter()
    for e in events:
        if e["ev"] == "migration":
            migrations[(int(e["round"]), int(e["vm"]), int(e["node"]), int(e["dst"]))] += 1
        elif _accepted(e):
            accepted[(int(e["round"]), int(e["vm"]), int(e["node"]), int(e["peer"]))] += 1
    violations: List[str] = []
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


def check_sleep_wake(events: Iterable[Event]) -> List[str]:
    """A PM must not go to sleep twice without waking in between.

    Wake-side events are ``pm_wake`` and ``pm_restart`` (a restarted PM
    re-enters the population awake or asleep, so a restart resets the
    tracking to "unknown" rather than asserting a state).  A wake
    without a prior sleep is legal — ``wake(recover=True)`` revives
    *failed* nodes that never slept.
    """
    marks = sorted((e for e in events if e["ev"] in _PM_STATE), key=_by_round)
    asleep: Dict[int, int] = {}  # pm -> round it slept
    violations: List[str] = []
    for event in marks:
        r, pm = int(event["round"]), int(event["node"])
        if event["ev"] == "pm_sleep":
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


def diff_traces(a: Iterable[Event], b: Iterable[Event]) -> Dict[str, Any]:
    """Structural diff of two traces.

    Returns per-kind event-count deltas (B minus A), the first round at
    which the per-round per-kind counts diverge (``None`` when they
    never do) and an ``identical`` verdict covering both.
    """
    table_a = Counter((int(e["round"]), e["ev"]) for e in a)
    table_b = Counter((int(e["round"]), e["ev"]) for e in b)
    kinds_a: Counter = Counter()
    kinds_b: Counter = Counter()
    for (_, kind), n in table_a.items():
        kinds_a[kind] += n
    for (_, kind), n in table_b.items():
        kinds_b[kind] += n
    deltas = {
        kind: kinds_b[kind] - kinds_a[kind]
        for kind in sorted(kinds_a | kinds_b)
        if kinds_b[kind] != kinds_a[kind]
    }
    first_divergence = min(
        (r for r, kind in table_a | table_b if table_a[r, kind] != table_b[r, kind]),
        default=None,
    )
    return {
        "identical": first_divergence is None,
        "count_deltas": deltas,
        "first_divergence_round": first_divergence,
        "events_a": sum(table_a.values()),
        "events_b": sum(table_b.values()),
    }


# -- the health verdict -------------------------------------------------------


def health_report(
    events: Optional[Iterable[Event]] = None,
    telemetry: Optional[Mapping[str, Any]] = None,
    min_convergence: Optional[float] = None,
) -> Dict[str, Any]:
    """Run every applicable check; returns the machine-readable verdict.

    ``events`` is a trace (event-level checks; read once, so a lazy
    :func:`~repro.obs.tracer.read_trace` is fine), ``telemetry`` a
    summary's telemetry section (conservation + convergence); either may
    be omitted and the corresponding checks are skipped.
    ``min_convergence`` turns a final Q-table cosine similarity below
    the threshold — or missing convergence data — into a violation.
    """
    if events is None and telemetry is None:
        raise ValueError("health_report needs a trace or a telemetry section")
    report: Dict[str, Any] = {"version": 1, "checks_run": [], "violations": []}

    def fail(check: str, detail: str) -> None:
        report["violations"].append({"check": check, "detail": detail})

    if events is not None:
        counts: Counter = Counter()
        checked: List[Event] = []
        for event in events:
            counts[event["ev"]] += 1
            if event["ev"] in _CHECKED or _accepted(event):
                checked.append(event)
        report["events"] = {kind: counts[kind] for kind in sorted(counts)}
        report["checks_run"] += ["migration_pairing", "overload_alternation", "sleep_wake"]
        for detail in check_migration_pairing(checked):
            fail("migration_pairing", detail)
        episodes, alternation = overload_episodes(checked)
        for detail in alternation:
            fail("overload_alternation", detail)
        for detail in check_sleep_wake(checked):
            fail("sleep_wake", detail)
        durations = [end - start for _, start, end in episodes if end is not None]
        rounds, overloaded = overloaded_per_round(episodes)
        report["overload"] = {
            "episodes": len(episodes),
            "open_at_end": sum(1 for e in episodes if e[2] is None),
            "mean_duration_rounds": (
                float(np.mean(durations)) if durations else 0.0
            ),
            "max_duration_rounds": max(durations) if durations else 0,
            "per_round": {"rounds": rounds.tolist(), "overloaded": overloaded.tolist()},
        }
        # The flow matrix's sum and non-zero count, without its n_pms^2 cells.
        routes = Counter(
            (int(e["node"]), int(e["dst"])) for e in checked if e["ev"] == "migration"
        )
        report["migrations"] = {
            "total": sum(routes.values()),
            "distinct_routes": len(routes),
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


def format_health_report(report: Mapping[str, Any]) -> str:
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
        rounds = overload["per_round"]["rounds"]
        counts = overload["per_round"]["overloaded"]
        if rounds:
            lines.append(
                f"overloaded PMs  |{sparkline(counts)}| "
                f"rounds {rounds[0]}-{rounds[-1]}, peak {max(counts)}"
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
    """Terminal rendering of :func:`diff_traces`."""
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
