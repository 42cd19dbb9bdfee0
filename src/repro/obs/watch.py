"""``glap watch``: live run monitoring from a heartbeat stream.

Everything the subcommand knows lives here, mirroring how
:mod:`repro.obs.analytics` backs ``glap analyze``.  A heartbeat file
(written by :class:`~repro.obs.heartbeat.HeartbeatWriter`) is loaded
tail-tolerantly, reduced to a watch report — the existing
:func:`~repro.obs.analytics.health_report` verdict computed over the
stream's reconstructed telemetry, plus progress, ETA, Q-cosine and
overload curves, and the resume/abort/complete
markers — and rendered with the same ASCII sparklines ``analyze``
uses.  Exit-code convention (enforced by the CLI): 0 healthy,
1 unhealthy (violations, an abort marker, or a missed
``--min-convergence``), 2 usage error.

A run interrupted mid-round and resumed from an earlier checkpoint
legitimately re-executes rounds, so ticks are deduplicated by round
index (the latest occurrence wins) before any series is built — the
curves and counter totals then describe the run's *effective* history.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.obs.analytics import format_health_report, health_report
from repro.obs.heartbeat import load_heartbeat
from repro.util.asciiplot import sparkline

__all__ = [
    "resolve_heartbeat_path",
    "watch_report",
    "watch_report_from_path",
    "format_watch_report",
]

#: Default heartbeat filename inside a run directory.
DEFAULT_HEARTBEAT_NAME = "heartbeat.jsonl"


def resolve_heartbeat_path(target: Union[str, Path]) -> Path:
    """Resolve a ``glap watch`` target: a heartbeat file or a run dir."""
    path = Path(target)
    if path.is_dir():
        return path / DEFAULT_HEARTBEAT_NAME
    return path


def _dedup_ticks(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Ticks by round index, latest occurrence winning, round order."""
    by_round: Dict[int, Dict[str, Any]] = {}
    for record in records:
        if record.get("kind") == "tick":
            by_round[int(record["round"])] = record
    return [by_round[r] for r in sorted(by_round)]


def _eta(ticks: List[Dict[str, Any]], rounds_total: Optional[int]) -> Dict[str, Any]:
    """ETA from the trailing monotonic ``wall_s`` window.

    A resume restarts the writer's wall clock, so the window only spans
    ticks after the last wall-time reset; the per-round pace times the
    remaining rounds gives the ETA.
    """
    eta: Dict[str, Any] = {"s_per_round": None, "eta_s": None}
    pts = [
        (int(t["round"]), float(t["timing"]["wall_s"]))
        for t in ticks
        if isinstance(t.get("timing"), dict) and "wall_s" in t["timing"]
    ]
    if len(pts) < 2:
        return eta
    # Trim to the suffix where wall_s is non-decreasing (post-resume).
    start = 0
    for i in range(1, len(pts)):
        if pts[i][1] < pts[i - 1][1]:
            start = i
    window = pts[start:][-32:]
    if len(window) < 2 or window[-1][0] <= window[0][0]:
        return eta
    pace = (window[-1][1] - window[0][1]) / (window[-1][0] - window[0][0])
    eta["s_per_round"] = pace
    if rounds_total is not None:
        remaining = max(0, int(rounds_total) - 1 - window[-1][0])
        eta["eta_s"] = pace * remaining
    return eta


def watch_report(
    records: List[Dict[str, Any]],
    min_convergence: Optional[float] = None,
) -> Dict[str, Any]:
    """Reduce a heartbeat record list to the machine-readable report.

    Raises ``ValueError`` when the stream has no header — that is a
    usage error (not a heartbeat file), not an unhealthy run.
    """
    header = next((r for r in records if r.get("kind") == "header"), None)
    if header is None:
        raise ValueError("no header record — not a heartbeat stream")
    ticks = _dedup_ticks(records)
    aborts = [r for r in records if r.get("kind") == "abort"]
    resumes = [r for r in records if r.get("kind") == "resumed"]
    complete = any(r.get("kind") == "complete" for r in records)

    # Reconstruct a telemetry section from the stream: totals are the
    # per-key delta sums, gauges one point per tick that carried them.
    totals: Dict[str, float] = {}
    gauges: Dict[str, Dict[str, List[float]]] = {}
    for t in ticks:
        for key, delta in t.get("counters", {}).items():
            totals[key] = totals.get(key, 0.0) + float(delta)
        for name, value in t.get("gauges", {}).items():
            series = gauges.setdefault(name, {"rounds": [], "values": []})
            series["rounds"].append(int(t["round"]))
            series["values"].append(float(value))
    health = health_report(
        telemetry={"totals": totals, "gauges": gauges},
        min_convergence=min_convergence,
    )
    for abort in aborts:
        detail = abort.get("reason", "unknown")
        if abort.get("error"):
            detail = f"{detail}: {abort['error']}"
        health["violations"].append({"check": "run_aborted", "detail": str(detail)})
    health["checks_run"].append("run_aborted")
    health["healthy"] = not health["violations"]

    rounds_total = header.get("rounds_total")
    last = ticks[-1] if ticks else None
    progress: Dict[str, Any] = {
        "round": int(last["round"]) if last else None,
        "rounds_total": rounds_total,
        "stage": last.get("stage") if last else None,
        "fraction": (
            (int(last["round"]) + 1) / rounds_total
            if last is not None and rounds_total
            else None
        ),
    }
    overloaded = [
        (int(t["round"]), int(t["overloaded_pms"]))
        for t in ticks
        if "overloaded_pms" in t
    ]
    return {
        "version": 1,
        "healthy": health["healthy"],
        "health": health,
        "header": dict(header),
        "progress": progress,
        "eta": _eta(ticks, rounds_total),
        "overloaded": {
            "rounds": [r for r, _ in overloaded],
            "values": [v for _, v in overloaded],
        },
        "ticks": len(ticks),
        "markers": {
            "resumed": len(resumes),
            "aborted": bool(aborts),
            "complete": complete,
        },
    }


def watch_report_from_path(
    target: Union[str, Path], min_convergence: Optional[float] = None
) -> Dict[str, Any]:
    """Load a heartbeat target (file or run dir) and build the report."""
    path = resolve_heartbeat_path(target)
    records = load_heartbeat(path, allow_partial_tail=True)
    return watch_report(records, min_convergence=min_convergence)


def format_watch_report(report: Mapping[str, Any]) -> str:
    """Terminal rendering: status line, health report, curves, ETA."""
    lines: List[str] = []
    header = report.get("header", {})
    progress = report.get("progress", {})
    markers = report.get("markers", {})
    status = "complete" if markers.get("complete") else (
        "ABORTED" if markers.get("aborted") else "live"
    )
    where = ""
    if progress.get("round") is not None:
        where = f"  round {progress['round']}"
        if progress.get("rounds_total"):
            where += f"/{progress['rounds_total'] - 1}"
        if progress.get("fraction") is not None:
            where += f" ({progress['fraction']:.0%})"
        if progress.get("stage"):
            where += f" [{progress['stage']}]"
    lines.append(
        f"{header.get('policy', '?')}  {header.get('n_pms', '?')} PMs / "
        f"{header.get('n_vms', '?')} VMs  seed={header.get('seed', '?')}  "
        f"{status}{where}"
    )
    if markers.get("resumed"):
        lines.append(f"resumed {markers['resumed']}x (heartbeat stream continued)")

    eta = report.get("eta", {})
    if eta.get("s_per_round") is not None:
        pace = f"{eta['s_per_round']:.3g} s/round"
        if eta.get("eta_s") is not None and not markers.get("complete"):
            lines.append(f"pace: {pace}  ETA {_fmt_duration(eta['eta_s'])}")
        else:
            lines.append(f"pace: {pace}")

    overloaded = report.get("overloaded", {})
    if overloaded.get("values"):
        values = [float(v) for v in overloaded["values"]]
        lines.append(
            f"overloaded PMs  |{sparkline(values)}| "
            f"last {int(values[-1])}, peak {int(max(values))}"
        )
    lines.append(format_health_report(report["health"]))
    return "\n".join(lines)


def _fmt_duration(seconds: float) -> str:
    seconds = max(0.0, float(seconds))
    if seconds < 60:
        return f"{seconds:.0f}s"
    if seconds < 3600:
        return f"{seconds / 60:.1f}m"
    return f"{seconds / 3600:.1f}h"
