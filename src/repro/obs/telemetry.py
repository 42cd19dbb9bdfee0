"""Run-health telemetry: running counter totals and sampled gauges.

The tracer (:mod:`repro.obs.tracer`) records individual *events*; the
telemetry registry records *rates and levels* — messages per kind,
migration accept/reject splits, PM sleep/wake activity, learning
TD-error, and the live Q-table cosine similarity of section IV-C — as
running totals and sparse gauge samples, cheap enough to leave on for
every observed run and small enough to ride in every summary and
checkpoint.

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
  registry snapshots every provider once per round into its totals.  A
  push counter (:meth:`Telemetry.inc`) exists for call sites with no
  counter home; its counts are folded in when the round closes.
* **One shape.**  The registry keeps one total per counter key (keys in
  order of first appearance) and each gauge's samples; the summary's
  ``telemetry`` section, the checkpointed state and a heartbeat tick's
  ``counters`` are all read from them.  The per-round history is the
  heartbeat stream's (:mod:`repro.obs.heartbeat`): an ``every=1``
  stream's consecutive ticks differ by each round's counts.

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
    "check_section",
    "last_samples",
]

#: Version of the ``telemetry`` section embedded in summaries/checkpoints.
TELEMETRY_VERSION = 1


def check_section(section: Any, where: str) -> None:
    """Validate a ``telemetry`` section, a summary's or a checkpoint's:
    an object of this build's version with ``totals`` and ``gauges``
    maps.  Anything else raises ``ValueError`` naming what is wrong,
    prefixed with ``where``."""
    if not isinstance(section, Mapping):
        raise ValueError(f"{where}: telemetry section must be an object")
    version = section.get("version")
    if version != TELEMETRY_VERSION:
        raise ValueError(
            f"{where}: telemetry version {version!r} unsupported "
            f"(this build reads version {TELEMETRY_VERSION})"
        )
    for key in ("totals", "gauges"):
        if not isinstance(section.get(key), Mapping):
            raise ValueError(f"{where}: telemetry section lacks {key!r} map")


def last_samples(gauges: Mapping[str, Any]) -> Dict[str, Any]:
    """``{gauge name: last sampled value}`` of a
    ``{name: {"rounds": [...], "values": [...]}}`` map, ``None`` for a
    gauge with no sample."""
    return {
        name: ((samples or {}).get("values") or [None])[-1]
        for name, samples in gauges.items()
    }


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
        #: Rounds closed by :meth:`end_round`.
        self.rounds_observed = 0
        #: Sparse gauge samples: name -> {"rounds": [...], "values": [...]}.
        self.gauges: Dict[str, Dict[str, List[float]]] = {}
        #: Running total per counter key, in order of first appearance.
        self._totals: Dict[str, float] = {}
        #: Push counts since the last :meth:`end_round`.
        self._pending: Dict[str, float] = {}
        self._sources: List[tuple[str, Callable[[], Mapping[str, float]]]] = []
        self._gauges: Dict[str, Callable[[], float]] = {}

    # -- recording ------------------------------------------------------------

    def inc(self, name: str, by: int = 1) -> None:
        self._pending[name] = self._pending.get(name, 0.0) + by

    def register_counters(
        self, source: str, provider: Callable[[], Mapping[str, float]]
    ) -> None:
        """Register ``provider`` under the ``source`` prefix.

        The provider must return *cumulative* (monotonic) counters; the
        registry keeps their latest values as the totals of
        ``"{source}/{key}"``.  Registering the same source twice is an
        error — two providers would write the same keys.
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
        """Fold in the round's push counts, then snapshot all providers
        into the totals, and sample the gauges when due.

        Call exactly once after each simulation round (warmup included),
        with the round index just executed.  A key a provider stops
        reporting keeps its last total.
        """
        totals = self._totals
        for key, by in self._pending.items():
            totals[key] = totals.get(key, 0.0) + by
        self._pending.clear()
        for source, provider in self._sources:
            for key, value in provider().items():
                totals[f"{source}/{key}"] = float(value)
        self.rounds_observed += 1
        if round_index % self.gauge_every == 0:
            for name, sampler in self._gauges.items():
                samples = self.gauges.setdefault(name, {"rounds": [], "values": []})
                samples["rounds"].append(int(round_index))
                samples["values"].append(float(sampler()))

    # -- read-out -------------------------------------------------------------

    def totals(self) -> Dict[str, float]:
        """Cumulative value of every counter key at the last closed round."""
        return dict(self._totals)

    def to_dict(self) -> Dict[str, Any]:
        """The serialisable ``telemetry`` section (summaries, reports).

        Totals and gauges are deterministic given (scenario, seed), so
        ``glap bench-compare`` gates on them exactly like metrics.
        """
        return {
            "version": TELEMETRY_VERSION,
            "rounds_observed": self.rounds_observed,
            "totals": self.totals(),
            "gauges": {
                name: {"rounds": list(s["rounds"]), "values": list(s["values"])}
                for name, s in self.gauges.items()
            },
        }

    # -- checkpointing --------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """:meth:`to_dict` plus ``gauge_every``: the whole state at a
        round boundary, where no push count is pending, so a resumed run
        continues every total and gauge exactly where the checkpointed
        one stopped.  Provider and gauge *registrations* are not state —
        the resume path re-runs the same attach/install calls that
        registered them originally."""
        return {**self.to_dict(), "gauge_every": self.gauge_every}

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        check_section(state, where="telemetry state")
        self.gauge_every = int(state["gauge_every"])
        self.rounds_observed = int(state["rounds_observed"])
        self._totals = {str(k): float(v) for k, v in state["totals"].items()}
        self._pending = {}
        self.gauges = {
            str(name): {
                "rounds": [int(r) for r in s["rounds"]],
                "values": [float(x) for x in s["values"]],
            }
            for name, s in state["gauges"].items()
        }
