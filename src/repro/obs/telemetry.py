"""Run-health telemetry: a per-round registry of counters and gauges.

The tracer (:mod:`repro.obs.tracer`) records individual *events*; the
telemetry registry records *rates and levels* — messages per kind,
migration accept/reject splits, PM sleep/wake activity, learning
TD-error, and the live Q-table cosine similarity of section IV-C — as
aligned per-round series, cheap enough to leave on for every observed
run and serialisable into benchmark summaries and checkpoints.

Design rules (shared with the tracer and profiler):

* **Zero-overhead default.**  Call sites hold a :class:`Telemetry`
  whose base implementation is a no-op with ``enabled = False``; hot
  paths guard with ``if telemetry.enabled:`` so an unobserved run pays
  one attribute check per site.  Telemetry never consumes randomness —
  the convergence gauge uses a private generator — so even an *enabled*
  registry leaves the simulation bit-identical (the golden suite
  asserts this).
* **Pull-first collection.**  Components that already keep cumulative
  diagnostic counters (network stats, consolidation rejections, fault
  injections, baseline switch-offs) register a *provider* callback; the
  registry snapshots every provider once per round and stores the
  per-round deltas.  A push counter (:meth:`Telemetry.inc`) exists for
  call sites with no counter home.
* **Aligned series.**  Every counter key holds one value per observed
  round; keys that appear mid-run are backfilled with zeros, so all
  series share the ``rounds`` axis.

Every gauge is sampled every ``gauge_every`` rounds and stored as
sparse (rounds, values) pairs — the convergence gauge computes an
O(pairs) cosine similarity, so it is not a per-round cost.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping

__all__ = [
    "TELEMETRY_VERSION",
    "Telemetry",
    "NULL_TELEMETRY",
    "TelemetryRegistry",
]

#: Version of the ``telemetry`` section embedded in summaries/checkpoints.
TELEMETRY_VERSION = 1


class Telemetry:
    """No-op telemetry: the zero-overhead default at every call site."""

    #: Call sites branch on this instead of recording unconditionally.
    enabled: bool = False

    def inc(self, name: str, by: int = 1) -> None:
        """Bump a push counter.  The base implementation discards it."""

    def register_counters(
        self, source: str, provider: Callable[[], Mapping[str, float]]
    ) -> None:
        """Register a cumulative-counter provider.  No-op here."""

    def register_gauge(self, name: str, sampler: Callable[[], float]) -> None:
        """Register a sampled gauge.  No-op here."""

    def end_round(self, round_index: int) -> None:
        """Close one simulation round.  No-op here."""


#: Shared no-op instance installed everywhere by default.
NULL_TELEMETRY = Telemetry()


class TelemetryRegistry(Telemetry):
    """The recording registry (see the module docstring).

    Parameters
    ----------
    gauge_every:
        Sampling cadence of every gauge (the convergence gauge's ``K``).
        Read at sampling time: on resume, registration runs before the
        checkpointed ``gauge_every`` is restored.
    """

    enabled = True

    def __init__(self, gauge_every: int = 10) -> None:
        if gauge_every <= 0:
            raise ValueError(f"gauge_every must be > 0, got {gauge_every}")
        self.gauge_every = int(gauge_every)
        #: Round indices observed, in order (the shared series axis).
        self.rounds: List[int] = []
        #: Per-round deltas per counter key, aligned with ``rounds``.
        self.series: Dict[str, List[float]] = {}
        #: Sparse gauge samples: name -> {"rounds": [...], "values": [...]}.
        self.gauges: Dict[str, Dict[str, List[float]]] = {}
        self._push: Dict[str, float] = {}
        self._prev: Dict[str, float] = {}
        self._sources: List[tuple[str, Callable[[], Mapping[str, float]]]] = []
        self._gauges: Dict[str, Callable[[], float]] = {}

    # -- recording ------------------------------------------------------------

    def inc(self, name: str, by: int = 1) -> None:
        self._push[name] = self._push.get(name, 0.0) + by

    def register_counters(
        self, source: str, provider: Callable[[], Mapping[str, float]]
    ) -> None:
        """Register ``provider`` under the ``source`` prefix.

        The provider must return *cumulative* (monotonic) counters; the
        registry stores per-round deltas under ``"{source}/{key}"``.
        Registering the same source twice is an error — it would double-
        count every key.
        """
        if any(name == source for name, _ in self._sources):
            raise ValueError(f"telemetry source {source!r} already registered")
        self._sources.append((source, provider))

    def register_gauge(self, name: str, sampler: Callable[[], float]) -> None:
        """Register a gauge sampled every ``gauge_every`` rounds.

        ``sampler`` must be deterministic and must not consume shared
        randomness (use a private generator if sampling pairs).
        """
        if name in self._gauges:
            raise ValueError(f"telemetry gauge {name!r} already registered")
        self._gauges[name] = sampler

    def end_round(self, round_index: int) -> None:
        """Snapshot all providers, store per-round deltas, sample gauges.

        Call exactly once after each simulation round (warmup included),
        with the round index just executed.
        """
        row: Dict[str, float] = dict(self._push)
        for source, provider in self._sources:
            for key, value in provider().items():
                row[f"{source}/{key}"] = float(value)
        n_done = len(self.rounds)
        for key, cum in row.items():
            series = self.series.get(key)
            if series is None:
                series = [0.0] * n_done
                self.series[key] = series
            series.append(cum - self._prev.get(key, 0.0))
            self._prev[key] = cum
        # Keys recorded earlier but absent from this round's snapshot
        # (a provider may legitimately stop reporting one) stay aligned.
        for key, series in self.series.items():
            if len(series) == n_done:
                series.append(0.0)
        self.rounds.append(int(round_index))
        if round_index % self.gauge_every == 0:
            for name, sampler in self._gauges.items():
                samples = self.gauges.setdefault(name, {"rounds": [], "values": []})
                samples["rounds"].append(int(round_index))
                samples["values"].append(float(sampler()))

    # -- read-out -------------------------------------------------------------

    def totals(self) -> Dict[str, float]:
        """Final cumulative value of every counter key."""
        return dict(self._prev)

    def gauge_final(self, name: str) -> float | None:
        """Last sampled value of gauge ``name`` (None if never sampled)."""
        samples = self.gauges.get(name)
        if not samples or not samples["values"]:
            return None
        return float(samples["values"][-1])

    def to_dict(self, include_series: bool = False) -> Dict[str, Any]:
        """The serialisable ``telemetry`` section (summaries, reports).

        Totals and gauges are deterministic given (scenario, seed), so
        ``glap bench-compare`` gates on them exactly like metrics.  The
        per-round series are omitted by default to keep summaries small.
        """
        out: Dict[str, Any] = {
            "version": TELEMETRY_VERSION,
            "rounds_observed": len(self.rounds),
            "totals": self.totals(),
            "gauges": {
                name: {"rounds": list(s["rounds"]), "values": list(s["values"])}
                for name, s in self.gauges.items()
            },
        }
        if include_series:
            out["rounds"] = list(self.rounds)
            out["series"] = {k: list(v) for k, v in self.series.items()}
        return out

    # -- checkpointing --------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Full mutable state, so a resumed run continues every series
        exactly where the checkpointed one stopped.  Provider and gauge
        *registrations* are not state — the resume path re-runs the same
        attach/install calls that registered them originally."""
        return {
            "version": TELEMETRY_VERSION,
            "gauge_every": self.gauge_every,
            "rounds": list(self.rounds),
            "series": {k: list(v) for k, v in self.series.items()},
            "gauges": {
                name: {"rounds": list(s["rounds"]), "values": list(s["values"])}
                for name, s in self.gauges.items()
            },
            "push": dict(self._push),
            "prev": dict(self._prev),
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        version = state.get("version")
        if version != TELEMETRY_VERSION:
            raise ValueError(
                f"telemetry state version {version!r} unsupported "
                f"(this build reads version {TELEMETRY_VERSION})"
            )
        self.gauge_every = int(state["gauge_every"])
        self.rounds = [int(r) for r in state["rounds"]]
        self.series = {
            str(k): [float(x) for x in v] for k, v in state["series"].items()
        }
        self.gauges = {
            str(name): {
                "rounds": [int(r) for r in s["rounds"]],
                "values": [float(x) for x in s["values"]],
            }
            for name, s in state["gauges"].items()
        }
        self._push = {str(k): float(v) for k, v in state["push"].items()}
        self._prev = {str(k): float(v) for k, v in state["prev"].items()}
