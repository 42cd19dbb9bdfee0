"""Unit tests for the telemetry registry: running totals and gauge
samples."""

import pytest

from repro.obs.telemetry import (
    NULL_TELEMETRY,
    TELEMETRY_VERSION,
    Telemetry,
    TelemetryRegistry,
    last_samples,
)


def test_null_telemetry_is_disabled_noop():
    assert NULL_TELEMETRY.enabled is False
    NULL_TELEMETRY.inc("x")
    NULL_TELEMETRY.register_counters("src", lambda: {"a": 1.0})
    NULL_TELEMETRY.register_gauge("g", lambda: 0.0)
    NULL_TELEMETRY.end_round(0)  # nothing recorded, nothing raised
    assert isinstance(NULL_TELEMETRY, Telemetry)


def test_provider_deltas_per_round():
    """The totals after each round are the provider's cumulative
    values, so consecutive totals differ by the round's counts."""
    reg = TelemetryRegistry()
    cum = {"sent": 0.0}
    reg.register_counters("net", lambda: dict(cum))
    seen = []
    for r, sent in enumerate([3.0, 7.0, 7.0]):
        cum["sent"] = sent
        reg.end_round(r)
        seen.append(reg.totals()["net/sent"])
    assert reg.rounds_observed == 3
    assert seen == [3.0, 7.0, 7.0]
    assert [b - a for a, b in zip([0.0] + seen, seen)] == [3.0, 4.0, 0.0]


def test_late_key_appears_from_its_round():
    reg = TelemetryRegistry()
    row = {"a": 1.0}
    reg.register_counters("s", lambda: dict(row))
    reg.end_round(0)
    assert reg.totals() == {"s/a": 1.0}
    row["b"] = 5.0
    reg.end_round(1)
    assert reg.totals() == {"s/a": 1.0, "s/b": 5.0}


def test_key_that_stops_reporting_keeps_its_total():
    reg = TelemetryRegistry()
    rows = [{"a": 1.0, "b": 2.0}, {"a": 2.0}]
    reg.register_counters("s", lambda: rows.pop(0))
    reg.end_round(0)
    reg.end_round(1)
    assert reg.totals() == {"s/a": 2.0, "s/b": 2.0}


def test_push_counters_accumulate_cumulatively():
    reg = TelemetryRegistry()
    reg.inc("engine/pm_wake")
    reg.inc("engine/pm_wake", by=2)
    reg.end_round(0)
    assert reg.totals()["engine/pm_wake"] == 3.0
    reg.inc("engine/pm_wake")
    reg.end_round(1)
    reg.end_round(2)
    assert reg.totals()["engine/pm_wake"] == 4.0


def test_push_counters_fold_in_at_end_round():
    """A push count is pending until its round closes: the totals (what
    a tick or a checkpoint reads) move only at ``end_round``."""
    reg = TelemetryRegistry()
    reg.register_counters("net", lambda: {"sent": 1.0})
    reg.end_round(0)
    reg.inc("engine/pm_wake", by=2)
    assert "engine/pm_wake" not in reg.totals()
    assert "engine/pm_wake" not in reg.state_dict()["totals"]
    reg.end_round(1)
    assert reg.totals()["engine/pm_wake"] == 2.0


def test_key_order_follows_first_appearance():
    """Push counters fold in before the providers, and a key keeps the
    place of its first appearance: the order a tick's ``counters`` and
    the summary's ``totals`` are written in."""
    reg = TelemetryRegistry()
    rows = [{"b": 1.0}, {"b": 2.0, "a": 1.0}, {"a": 2.0, "b": 3.0}]
    reg.register_counters("s", lambda: rows.pop(0))
    reg.register_counters("net", lambda: {"sent": 1.0})
    reg.end_round(0)
    reg.inc("engine/pm_wake")
    reg.inc("engine/pm_sleep")
    reg.end_round(1)
    reg.inc("engine/pm_sleep")
    reg.inc("engine/z_first")
    reg.end_round(2)
    assert list(reg.totals()) == [
        "s/b", "net/sent", "engine/pm_wake", "engine/pm_sleep", "s/a",
        "engine/z_first",
    ]
    assert list(reg.to_dict()["totals"]) == list(reg.totals())


def test_duplicate_source_rejected():
    reg = TelemetryRegistry()
    reg.register_counters("net", lambda: {})
    with pytest.raises(ValueError, match="already registered"):
        reg.register_counters("net", lambda: {})


def test_duplicate_gauge_rejected():
    reg = TelemetryRegistry()
    reg.register_gauge("g", lambda: 0.0)
    with pytest.raises(ValueError, match="already registered"):
        reg.register_gauge("g", lambda: 1.0)


def test_gauge_every_validation():
    with pytest.raises(ValueError):
        TelemetryRegistry(gauge_every=0)


def test_gauge_sampling_cadence():
    """Every gauge samples at the registry's cadence, in registration
    order."""
    reg = TelemetryRegistry(gauge_every=3)
    samples = iter(range(100))
    reg.register_gauge("q", lambda: float(next(samples)))
    reg.register_gauge("p", lambda: float(next(samples)))
    for r in range(7):
        reg.end_round(r)
    assert reg.gauges["q"]["rounds"] == reg.gauges["p"]["rounds"] == [0, 3, 6]
    assert reg.gauges["q"]["values"] == [0.0, 2.0, 4.0]
    assert reg.gauges["p"]["values"] == [1.0, 3.0, 5.0]
    assert last_samples(reg.gauges) == {"q": 4.0, "p": 5.0}


def test_last_samples_of_a_summary_section():
    gauges = {
        "q": {"rounds": [0, 5], "values": [0.25, 0.5]},
        "empty": {"rounds": [], "values": []},
        "null": None,
    }
    assert last_samples(gauges) == {"q": 0.5, "empty": None, "null": None}


def test_to_dict_shape():
    reg = TelemetryRegistry(gauge_every=1)
    reg.register_counters("s", lambda: {"a": 1.0})
    reg.register_gauge("g", lambda: 0.5)
    reg.end_round(0)
    out = reg.to_dict()
    assert out["version"] == TELEMETRY_VERSION
    assert out["rounds_observed"] == 1
    assert out["totals"] == {"s/a": 1.0}
    assert out["gauges"]["g"] == {"rounds": [0], "values": [0.5]}
    assert set(out) == {"version", "rounds_observed", "totals", "gauges"}


def test_state_dict_is_to_dict_plus_gauge_every():
    reg = TelemetryRegistry(gauge_every=3)
    reg.register_counters("s", lambda: {"a": 1.0})
    reg.register_gauge("g", lambda: 0.5)
    reg.inc("p")
    for r in range(4):
        reg.end_round(r)
    assert reg.state_dict() == {**reg.to_dict(), "gauge_every": 3}


def test_state_dict_roundtrip_continues_series():
    """A restored registry continues its totals and gauge series where
    the checkpointed one stopped."""
    reg = TelemetryRegistry(gauge_every=2)
    cum = {"sent": 0.0}
    reg.register_counters("net", lambda: dict(cum))
    reg.register_gauge("g", lambda: cum["sent"])
    cum["sent"] = 4.0
    reg.end_round(0)
    cum["sent"] = 6.0
    reg.end_round(1)

    restored = TelemetryRegistry()
    restored.load_state_dict(reg.state_dict())
    restored.register_counters("net", lambda: dict(cum))
    restored.register_gauge("g", lambda: cum["sent"])
    cum["sent"] = 10.0
    restored.end_round(2)

    assert restored.gauge_every == 2
    assert restored.rounds_observed == 3
    assert restored.totals() == {"net/sent": 10.0}
    assert restored.gauges["g"] == {"rounds": [0, 2], "values": [4.0, 10.0]}


def test_push_total_continues_across_a_restore():
    reg = TelemetryRegistry()
    reg.inc("engine/pm_wake", by=3)
    reg.end_round(0)
    restored = TelemetryRegistry()
    restored.load_state_dict(reg.state_dict())
    restored.inc("engine/pm_wake")
    restored.end_round(1)
    assert restored.totals() == {"engine/pm_wake": 4.0}


def test_state_dict_version_check():
    reg = TelemetryRegistry()
    state = reg.state_dict()
    state["version"] = 999
    with pytest.raises(ValueError, match="version"):
        TelemetryRegistry().load_state_dict(state)


def test_state_with_per_round_series_is_refused():
    """A state with per-round ``series`` and no ``totals`` (the layout
    that kept every round's deltas) is refused, naming the missing key."""
    old = {
        "version": TELEMETRY_VERSION,
        "gauge_every": 10,
        "rounds": [0, 1],
        "series": {"net/sent": [3.0, 4.0]},
        "gauges": {},
        "push": {},
        "prev": {"net/sent": 7.0},
    }
    with pytest.raises(ValueError, match="lacks 'totals'"):
        TelemetryRegistry().load_state_dict(old)
