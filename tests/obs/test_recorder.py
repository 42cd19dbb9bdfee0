"""Tests for repro.obs.recorder — the flight ring and post-mortem bundle."""

import json

import pytest

from repro.obs.recorder import (
    FLIGHT_SCHEMA,
    FLIGHT_VERSION,
    FlightRecorder,
    load_bundle,
    validate_bundle,
)
from repro.obs.telemetry import TelemetryRegistry
from repro.obs.tracer import NULL_TRACER, RecordingTracer


class TestRing:
    def test_tee_records_and_forwards(self, tmp_path):
        recorder = FlightRecorder(tmp_path / "pm.json")
        inner = RecordingTracer()
        tee = recorder.wrap(inner)
        tee.emit("migration", 3, 1, vm=7, dst=2)
        expected = {"ev": "migration", "round": 3, "node": 1, "vm": 7, "dst": 2}
        assert recorder.events == [expected]
        assert inner.events == [expected]

    def test_tee_over_null_tracer_still_records(self, tmp_path):
        """The ring wants events even when no trace file is configured —
        that is its whole point."""
        recorder = FlightRecorder(tmp_path / "pm.json")
        tee = recorder.wrap(NULL_TRACER)
        assert tee.enabled is True
        tee.emit("pm_sleep", 0, 4)
        assert recorder.events == [{"ev": "pm_sleep", "round": 0, "node": 4}]

    def test_ring_is_bounded_keeps_latest(self, tmp_path):
        recorder = FlightRecorder(tmp_path / "pm.json", capacity=4)
        tee = recorder.wrap(NULL_TRACER)
        for r in range(10):
            tee.emit("pm_sleep", r, 0)
        rounds = [e["round"] for e in recorder.events]
        assert rounds == [6, 7, 8, 9]

    def test_tee_validates_like_a_tracer(self, tmp_path):
        tee = FlightRecorder(tmp_path / "pm.json").wrap(NULL_TRACER)
        with pytest.raises(ValueError, match="unknown event kind"):
            tee.emit("bogus", 0, 0)

    def test_capacity_validated(self, tmp_path):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(tmp_path / "pm.json", capacity=0)
        with pytest.raises(ValueError, match="telemetry_tail"):
            FlightRecorder(tmp_path / "pm.json", telemetry_tail=0)


class TestDump:
    def _recorder(self, tmp_path) -> FlightRecorder:
        recorder = FlightRecorder(tmp_path / "pm.json", telemetry_tail=2)
        recorder.bind(
            config={"policy": "GLAP", "seed": 7},
            stream_names=["trace", "engine"],
            heartbeat_path=tmp_path / "hb.jsonl",
        )
        tee = recorder.wrap(NULL_TRACER)
        tee.emit("pm_sleep", 1, 0)
        return recorder

    def test_bundle_schema_and_round_trip(self, tmp_path):
        recorder = self._recorder(tmp_path)
        recorder.checkpoint_saved(tmp_path / "ck.json", 5)
        path = recorder.dump("sigterm", error="Signal(15)")
        bundle = load_bundle(path)  # load_bundle validates
        assert bundle["schema"] == FLIGHT_SCHEMA
        assert bundle["version"] == FLIGHT_VERSION
        assert bundle["reason"] == "sigterm"
        assert bundle["error"] == "Signal(15)"
        assert bundle["config"] == {"policy": "GLAP", "seed": 7}
        assert bundle["rng_streams"] == ["trace", "engine"]
        assert bundle["checkpoint"]["eval_rounds_done"] == 5
        assert bundle["events"][0]["ev"] == "pm_sleep"
        assert recorder.dumped == "sigterm"

    def test_telemetry_tail_is_bounded(self, tmp_path):
        recorder = self._recorder(tmp_path)
        registry = TelemetryRegistry()
        total = {"value": 0.0}
        registry.register_counters("net", lambda: {"sent": total["value"]})
        for r in range(6):
            total["value"] += 1.0
            registry.end_round(r)
        recorder.bind(telemetry=registry)
        bundle = load_bundle(recorder.dump("manual"))
        tail = bundle["telemetry_tail"]
        assert tail["rounds"] == [4, 5]  # telemetry_tail=2
        assert tail["series"]["net/sent"] == [1.0, 1.0]
        assert tail["totals"]["net/sent"] == 6.0

    def test_second_dump_overwrites(self, tmp_path):
        recorder = self._recorder(tmp_path)
        recorder.dump("exception", error="first")
        recorder.dump("sigterm", error="second")
        bundle = load_bundle(recorder.bundle_path)
        assert bundle["reason"] == "sigterm" and bundle["error"] == "second"

    def test_bind_is_an_idempotent_merge(self, tmp_path):
        recorder = FlightRecorder(tmp_path / "pm.json")
        recorder.bind(config={"policy": "GLAP"})
        recorder.bind(config={"seed": 3})
        bundle = load_bundle(recorder.dump("manual"))
        assert bundle["config"] == {"policy": "GLAP", "seed": 3}

    def test_unknown_reason_is_refused_and_writes_nothing(self, tmp_path):
        recorder = self._recorder(tmp_path)
        with pytest.raises(ValueError, match="unknown dump reason 'bogus'"):
            recorder.dump("bogus")
        assert not recorder.bundle_path.exists()
        assert recorder.dumped is None


class TestValidateBundle:
    def _good(self) -> dict:
        return {
            "schema": FLIGHT_SCHEMA,
            "version": FLIGHT_VERSION,
            "reason": "exception",
            "config": {},
            "rng_streams": [],
            "events": [{"ev": "pm_sleep", "round": 0, "node": 1}],
            "telemetry_tail": {},
            "checkpoint": {},
        }

    def test_good_bundle_passes(self):
        validate_bundle(self._good())

    @pytest.mark.parametrize(
        "mutation,match",
        [
            ({"schema": "nope"}, "not a flight bundle"),
            ({"version": 99}, "version"),
            ({"reason": ""}, "no dump reason"),
            ({"config": None}, "config"),
            ({"rng_streams": "x"}, "rng_streams"),
            ({"events": [{"round": 0}]}, "typed event"),
        ],
    )
    def test_mutations_rejected(self, mutation, match):
        bundle = {**self._good(), **mutation}
        with pytest.raises(ValueError, match=match):
            validate_bundle(bundle)

    @pytest.mark.parametrize("reason", ["bogus", "SIGTERM", 15])
    def test_unknown_reason_rejected(self, tmp_path, reason):
        bundle = {**self._good(), "reason": reason}
        with pytest.raises(ValueError, match="reason"):
            validate_bundle(bundle)
        path = tmp_path / "pm.json"
        path.write_text(json.dumps(bundle))
        with pytest.raises(ValueError, match="reason"):
            load_bundle(path)

    def test_load_bundle_rejects_non_object(self, tmp_path):
        path = tmp_path / "pm.json"
        path.write_text(json.dumps([1, 2]))
        with pytest.raises(ValueError, match="JSON object"):
            load_bundle(path)
