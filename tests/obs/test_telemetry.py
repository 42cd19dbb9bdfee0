"""Unit tests for the per-round telemetry registry."""

import pytest

from repro.obs.telemetry import (
    NULL_TELEMETRY,
    TELEMETRY_VERSION,
    Telemetry,
    TelemetryRegistry,
)


def test_null_telemetry_is_disabled_noop():
    assert NULL_TELEMETRY.enabled is False
    NULL_TELEMETRY.inc("x")
    NULL_TELEMETRY.register_counters("src", lambda: {"a": 1.0})
    NULL_TELEMETRY.register_gauge("g", lambda: 0.0)
    NULL_TELEMETRY.end_round(0)  # nothing recorded, nothing raised
    assert isinstance(NULL_TELEMETRY, Telemetry)


def test_provider_deltas_per_round():
    reg = TelemetryRegistry()
    cum = {"sent": 0.0}
    reg.register_counters("net", lambda: dict(cum))
    cum["sent"] = 3.0
    reg.end_round(0)
    cum["sent"] = 7.0
    reg.end_round(1)
    cum["sent"] = 7.0
    reg.end_round(2)
    assert reg.rounds == [0, 1, 2]
    assert reg.series["net/sent"] == [3.0, 4.0, 0.0]
    assert reg.totals()["net/sent"] == 7.0


def test_late_key_is_backfilled_with_zeros():
    reg = TelemetryRegistry()
    row = {"a": 1.0}
    reg.register_counters("s", lambda: dict(row))
    reg.end_round(0)
    row["b"] = 5.0
    reg.end_round(1)
    assert reg.series["s/a"] == [1.0, 0.0]
    assert reg.series["s/b"] == [0.0, 5.0]
    # every series shares the rounds axis
    assert {len(v) for v in reg.series.values()} == {len(reg.rounds)}


def test_key_that_stops_reporting_stays_aligned():
    reg = TelemetryRegistry()
    rows = [{"a": 1.0, "b": 2.0}, {"a": 2.0}]
    reg.register_counters("s", lambda: rows.pop(0))
    reg.end_round(0)
    reg.end_round(1)
    assert reg.series["s/a"] == [1.0, 1.0]
    assert reg.series["s/b"] == [2.0, 0.0]


def test_push_counters_accumulate_cumulatively():
    reg = TelemetryRegistry()
    reg.inc("engine/pm_wake")
    reg.inc("engine/pm_wake", by=2)
    reg.end_round(0)
    reg.inc("engine/pm_wake")
    reg.end_round(1)
    reg.end_round(2)
    assert reg.series["engine/pm_wake"] == [3.0, 1.0, 0.0]
    assert reg.totals()["engine/pm_wake"] == 4.0


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
    assert reg.gauge_final("q") == 4.0
    assert reg.gauge_final("missing") is None


def test_to_dict_shape_and_series_opt_in():
    reg = TelemetryRegistry(gauge_every=1)
    reg.register_counters("s", lambda: {"a": 1.0})
    reg.register_gauge("g", lambda: 0.5)
    reg.end_round(0)
    out = reg.to_dict()
    assert out["version"] == TELEMETRY_VERSION
    assert out["rounds_observed"] == 1
    assert out["totals"] == {"s/a": 1.0}
    assert out["gauges"]["g"] == {"rounds": [0], "values": [0.5]}
    assert "series" not in out
    full = reg.to_dict(include_series=True)
    assert full["rounds"] == [0]
    assert full["series"] == {"s/a": [1.0]}


def test_state_dict_roundtrip_continues_series():
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
    assert restored.rounds == [0, 1, 2]
    # the first post-resume delta is relative to the checkpointed
    # cumulative value, not to zero
    assert restored.series["net/sent"] == [4.0, 2.0, 4.0]
    assert restored.gauges["g"] == {"rounds": [0, 2], "values": [4.0, 10.0]}


def test_state_dict_version_check():
    reg = TelemetryRegistry()
    state = reg.state_dict()
    state["version"] = 999
    with pytest.raises(ValueError, match="version"):
        TelemetryRegistry().load_state_dict(state)
