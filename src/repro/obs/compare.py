"""Diffing two run summaries — the primitive behind the CI perf gate.

``glap bench-compare baseline.json current.json --tolerance 0.15``
loads two :mod:`repro.obs.summary` artifacts and reports:

* **metric drift** — metrics are fully deterministic given the pinned
  (scenario, seed), so *any* difference beyond float-noise level is a
  behavioural regression and always fails;
* **timing regressions** — a timing (overall ``wall_s`` or any phase
  total) that exceeds ``baseline * (1 + tolerance)`` fails; timings
  *below* baseline are reported as improvements but never fail;
* **context mismatch** — comparing summaries of different scenarios or
  policies is a configuration error and fails, so the gate can never
  silently pass by comparing apples to oranges;
* **telemetry drift** — when both summaries carry a ``telemetry``
  section, its counter totals and final gauge values are deterministic
  exactly like metrics, so any drift fails; a section present in only
  one summary is a warning (telemetry is opt-in per run).

Timing keys present in only one summary are reported but do not fail:
instrumentation legitimately gains phases across PRs, and a missing
phase cannot hide a regression in ``wall_s``, which is always compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping

from repro.obs.telemetry import last_samples

__all__ = ["Finding", "compare_summaries", "format_findings"]

#: Relative tolerance treated as float noise when comparing metrics.
METRIC_RTOL = 1e-12


@dataclass(frozen=True)
class Finding:
    """One comparison outcome.

    ``severity`` is ``"fail"`` (gate must exit non-zero), ``"warn"``
    (surfaced, does not fail) or ``"info"`` (improvements, notes).
    """

    severity: str
    category: str  # "metric_drift" | "timing_regression" | "context" | ...
    key: str
    baseline: Any
    current: Any
    detail: str = ""

    @property
    def fails(self) -> bool:
        return self.severity == "fail"


def _metrics_equal(a: Any, b: Any) -> bool:
    try:
        fa, fb = float(a), float(b)
    except (TypeError, ValueError):
        return a == b
    if fa == fb:
        return True
    scale = max(abs(fa), abs(fb))
    return abs(fa - fb) <= METRIC_RTOL * scale


def _flatten_timings(timings: Mapping[str, Any]) -> Dict[str, float]:
    """``{"wall_s": x, "phases": {p: {"total_s": y}}}`` -> flat key map."""
    flat: Dict[str, float] = {}
    if "wall_s" in timings:
        flat["wall_s"] = float(timings["wall_s"])
    for name, stats in (timings.get("phases") or {}).items():
        total = stats.get("total_s") if isinstance(stats, Mapping) else stats
        if total is not None:
            flat[f"phase/{name}"] = float(total)
    return flat


def compare_summaries(
    baseline: Mapping[str, Any],
    current: Mapping[str, Any],
    *,
    tolerance: float = 0.15,
    compare_timings: bool = True,
) -> List[Finding]:
    """Compare two loaded summaries; see the module docstring for rules."""
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    findings: List[Finding] = []

    # Context: the two artifacts must describe the same experiment.
    b_ctx, c_ctx = baseline.get("context", {}), current.get("context", {})
    for key in sorted(set(b_ctx) | set(c_ctx)):
        if b_ctx.get(key) != c_ctx.get(key):
            findings.append(
                Finding(
                    "fail",
                    "context",
                    key,
                    b_ctx.get(key),
                    c_ctx.get(key),
                    "summaries describe different experiments",
                )
            )

    # Metrics: deterministic, so any drift fails.
    findings += _drift(
        "metric_drift",
        baseline.get("metrics", {}),
        current.get("metrics", {}),
        what="metric",
    )

    # Telemetry: deterministic like metrics, but opt-in per run.
    b_tel, c_tel = baseline.get("telemetry"), current.get("telemetry")
    if (b_tel is None) != (c_tel is None):
        findings.append(
            Finding(
                "warn",
                "telemetry_coverage",
                "telemetry",
                "present" if b_tel is not None else "absent",
                "present" if c_tel is not None else "absent",
                "telemetry section present in only one summary",
            )
        )
    elif b_tel is not None and c_tel is not None:
        findings += _drift(
            "telemetry_drift",
            b_tel.get("totals", {}),
            c_tel.get("totals", {}),
            what="counter",
            prefix="total/",
        )
        findings += _drift(
            "telemetry_drift",
            last_samples(b_tel.get("gauges", {})),
            last_samples(c_tel.get("gauges", {})),
            what="gauge",
            prefix="gauge/",
            changed="final gauge sample drifted",
        )

    if compare_timings:
        b_tim = _flatten_timings(baseline.get("timings", {}))
        c_tim = _flatten_timings(current.get("timings", {}))
        for key in sorted(set(b_tim) | set(c_tim)):
            if key not in b_tim or key not in c_tim:
                findings.append(
                    Finding(
                        "warn",
                        "timing_coverage",
                        key,
                        b_tim.get(key),
                        c_tim.get(key),
                        "timing present in only one summary",
                    )
                )
                continue
            base, cur = b_tim[key], c_tim[key]
            limit = base * (1.0 + tolerance)
            if cur > limit:
                ratio = cur / base if base > 0 else float("inf")
                findings.append(
                    Finding(
                        "fail",
                        "timing_regression",
                        key,
                        base,
                        cur,
                        f"{ratio:.2f}x baseline exceeds 1+tolerance "
                        f"({1.0 + tolerance:.2f}x)",
                    )
                )
            elif base > 0 and cur < base / (1.0 + tolerance):
                findings.append(
                    Finding(
                        "info",
                        "timing_improvement",
                        key,
                        base,
                        cur,
                        f"{cur / base:.2f}x baseline",
                    )
                )
    return findings


def _drift(
    category: str,
    baseline: Mapping[str, Any],
    current: Mapping[str, Any],
    *,
    what: str,
    prefix: str = "",
    changed: str = "",
) -> List[Finding]:
    """Fail every key present in only one map, or whose values differ
    beyond float noise."""
    findings: List[Finding] = []
    for key in sorted(set(baseline) | set(current)):
        if key not in baseline or key not in current:
            findings.append(
                Finding(
                    "fail",
                    category,
                    prefix + key,
                    baseline.get(key),
                    current.get(key),
                    f"{what} present in only one summary",
                )
            )
        elif not _metrics_equal(baseline[key], current[key]):
            findings.append(
                Finding(
                    "fail", category, prefix + key, baseline[key], current[key], changed
                )
            )
    return findings


def _fmt_value(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def format_findings(findings: List[Finding], *, tolerance: float) -> str:
    """Render findings for the terminal, failures first."""
    if not findings:
        return f"bench-compare: OK (no drift; timing tolerance {tolerance:.0%})"
    order = {"fail": 0, "warn": 1, "info": 2}
    lines = []
    for f in sorted(findings, key=lambda f: (order.get(f.severity, 3), f.key)):
        tail = f" — {f.detail}" if f.detail else ""
        lines.append(
            f"[{f.severity.upper():4s}] {f.category:18s} {f.key}: "
            f"baseline={_fmt_value(f.baseline)} current={_fmt_value(f.current)}{tail}"
        )
    n_fail = sum(1 for f in findings if f.fails)
    lines.append(
        f"bench-compare: {n_fail} failing finding(s), "
        f"{len(findings) - n_fail} informational"
    )
    return "\n".join(lines)
