"""Phase profiling: a wall-time breakdown of where a run spends its time.

A simulation round is a fixed pipeline — trace refresh, fault
scheduling, the gossip round (learning / aggregation / consolidation
depending on the GLAP phase), policy bookkeeping, metric sampling — and
perf regressions almost always live in exactly one stage.  The profiler
wraps each stage in a context-manager timer and accumulates per-phase
totals, so ``glap run --profile`` prints (and ``BENCH_run.json``
records) a breakdown instead of one opaque wall-time number.

Nesting: phases may nest (e.g. ``learning``, ``aggregation`` and
``consolidation`` run inside ``engine_round``).  Each phase
accumulates its own *inclusive* time plus a *self* time (inclusive
minus the time spent in directly nested spans), and records the parent
phase it was first entered under — which is what lets
:meth:`PhaseProfiler.format` render a tree with a percent-of-parent
column, siblings sorted by self time so the hot phase leads.
:attr:`PhaseProfiler.top_level_s` sums only depth-0 spans — that is
the figure comparable to the measured wall time of the instrumented
region (the test suite asserts the two agree within tolerance).

The default at every call site is :data:`NULL_PROFILER`; hot paths guard
with ``if profiler.enabled:`` so unprofiled runs pay one attribute check
per stage.  Profiling reads the clock but never the RNG, so enabling it
cannot perturb results.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

__all__ = ["PhaseStats", "NullProfiler", "NULL_PROFILER", "PhaseProfiler"]


class PhaseStats:
    """Accumulated wall time and entry count of one phase.

    ``total_s`` is inclusive (nested spans count), ``self_s`` excludes
    time spent in directly nested spans, and ``parent`` is the phase
    this one was first entered under (``None`` for top-level phases).
    """

    __slots__ = ("name", "total_s", "self_s", "calls", "parent")

    def __init__(self, name: str) -> None:
        self.name = name
        self.total_s = 0.0
        self.self_s = 0.0
        self.calls = 0
        self.parent: Optional[str] = None

    def as_dict(self) -> Dict[str, float]:
        out: Dict[str, float] = {
            "total_s": self.total_s,
            "self_s": self.self_s,
            "calls": self.calls,
        }
        if self.parent is not None:
            out["parent"] = self.parent  # type: ignore[assignment]
        return out

    def __repr__(self) -> str:
        return f"PhaseStats({self.name!r}, total_s={self.total_s:.6f}, calls={self.calls})"


class _NullSpan:
    """Shared do-nothing context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullProfiler:
    """No-op profiler: the zero-overhead default at every call site."""

    enabled: bool = False

    def phase(self, name: str) -> _NullSpan:
        return _NULL_SPAN


#: Shared no-op instance installed everywhere by default.
NULL_PROFILER = NullProfiler()


class _Span:
    """One timed entry into a phase (allocated per ``with`` block)."""

    __slots__ = ("_profiler", "_name", "_t0", "_child_s")

    def __init__(self, profiler: "PhaseProfiler", name: str) -> None:
        self._profiler = profiler
        self._name = name
        self._child_s = 0.0

    def __enter__(self) -> "_Span":
        self._profiler._stack.append(self)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        elapsed = time.perf_counter() - self._t0
        prof = self._profiler
        prof._stack.pop()
        stats = prof._phases.get(self._name)
        if stats is None:
            stats = prof._phases[self._name] = PhaseStats(self._name)
        stats.total_s += elapsed
        stats.self_s += elapsed - self._child_s
        stats.calls += 1
        if prof._stack:
            parent = prof._stack[-1]
            parent._child_s += elapsed
            if stats.parent is None:
                stats.parent = parent._name
        else:
            prof.top_level_s += elapsed


class PhaseProfiler(NullProfiler):
    """Accumulates per-phase wall time; see the module docstring.

    Usage::

        prof = PhaseProfiler()
        with prof.phase("engine_round"):
            ...
        prof.breakdown()   # {"engine_round": {"total_s": ..., ...}}
    """

    enabled = True

    def __init__(self) -> None:
        self._phases: Dict[str, PhaseStats] = {}
        self._stack: List[_Span] = []
        #: Wall time accumulated by depth-0 spans only (no double count).
        self.top_level_s = 0.0

    def phase(self, name: str) -> _Span:  # type: ignore[override]
        return _Span(self, name)

    # -- reporting ----------------------------------------------------------

    def breakdown(self) -> Dict[str, Dict[str, float]]:
        """Per-phase ``{"total_s", "self_s", "calls"[, "parent"]}``,
        insertion order."""
        return {name: stats.as_dict() for name, stats in self._phases.items()}

    def items(self) -> List[Tuple[str, PhaseStats]]:
        """Phases sorted by descending total time."""
        return sorted(self._phases.items(), key=lambda kv: -kv[1].total_s)

    def format(self) -> str:
        """A human-readable tree: siblings by descending self time, with
        a percent-of-parent column (top-level phases against the
        top-level total)."""
        if not self._phases:
            return "phase breakdown: (no phases recorded)"
        children: Dict[Optional[str], List[PhaseStats]] = {}
        for stats in self._phases.values():
            # A parent span that is still open (format() called from
            # inside it) has no stats yet; its children root the tree.
            parent = stats.parent if stats.parent in self._phases else None
            children.setdefault(parent, []).append(stats)
        rows: List[Tuple[int, PhaseStats, float]] = []

        def walk(parent: Optional[str], parent_total: float, depth: int) -> None:
            for stats in sorted(
                children.get(parent, []), key=lambda s: -s.self_s
            ):
                share = stats.total_s / parent_total if parent_total > 0 else 0.0
                rows.append((depth, stats, share))
                walk(stats.name, stats.total_s, depth + 1)

        root_total = self.top_level_s or sum(
            s.total_s for s in children.get(None, [])
        )
        walk(None, root_total, 0)
        width = max(len(name) + 2 * depth for depth, s, _ in rows for name in [s.name])
        width = max(width, len("(top-level total)"))
        lines = [
            f"{'phase'.ljust(width)}  {'total':>10s}  {'self':>10s}"
            f"  {'calls':>8s}  {'%parent':>7s}"
        ]
        for depth, stats, share in rows:
            label = "  " * depth + stats.name
            lines.append(
                f"{label.ljust(width)}  {stats.total_s:9.3f}s  "
                f"{stats.self_s:9.3f}s  {stats.calls:8d}  {share:6.1%}"
            )
        lines.append(f"{'(top-level total)'.ljust(width)}  {self.top_level_s:9.3f}s")
        return "\n".join(lines)
