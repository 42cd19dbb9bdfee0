"""Tests for repro.obs.heartbeat — the streaming live-run sink.

Covers the writer's lifecycle (header / ticks / terminal markers), the
deterministic-vs-timing field split, cadence, and resume continuity:
torn-tail repair, counter-baseline reconstruction, and the ``resumed``
marker.
"""

import json

import pytest

from repro.obs.heartbeat import (
    HEARTBEAT_KINDS,
    HEARTBEAT_VERSION,
    HeartbeatWriter,
    load_heartbeat,
    read_heartbeat,
)
from repro.obs.telemetry import TelemetryRegistry


def _start(writer: HeartbeatWriter, **overrides) -> None:
    defaults = dict(
        policy="GLAP",
        n_pms=12,
        n_vms=24,
        seed=7,
        rounds_total=30,
        warmup_rounds=15,
        eval_rounds=15,
    )
    defaults.update(overrides)
    writer.start(**defaults)


def _telemetry_with(counter_total: float) -> TelemetryRegistry:
    registry = TelemetryRegistry()
    registry.register_counters("net", lambda: {"sent": counter_total})
    registry.register_gauge("glap/q_cosine", lambda: 0.5)
    return registry


class TestLifecycle:
    def test_header_first_line(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        writer = HeartbeatWriter(path)
        assert not writer.started
        _start(writer)
        assert writer.started
        records = load_heartbeat(path)
        assert [r["kind"] for r in records] == ["header"]
        header = records[0]
        assert header["v"] == HEARTBEAT_VERSION
        assert header["schema"] == "glap-heartbeat"
        assert header["rounds_total"] == 30
        assert header["every"] == 1

    def test_tick_before_start_raises(self, tmp_path):
        with pytest.raises(RuntimeError, match="before start"):
            HeartbeatWriter(tmp_path / "hb.jsonl").tick(round_index=0, stage="warmup")

    def test_fresh_start_truncates_stale_file(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        path.write_text('{"v":1,"kind":"header","stale":true}\ngarbage\n')
        writer = HeartbeatWriter(path)
        _start(writer)
        assert len(load_heartbeat(path)) == 1

    def test_complete_marker_counts_ticks(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        writer = HeartbeatWriter(path)
        _start(writer)
        writer.tick(round_index=0, stage="warmup")
        writer.tick(round_index=1, stage="warmup")
        writer.complete()
        records = load_heartbeat(path)
        assert records[-1]["kind"] == "complete"
        assert records[-1]["ticks"] == 2
        assert "wall_s" in records[-1]["timing"]

    def test_abort_marker(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        writer = HeartbeatWriter(path)
        _start(writer)
        writer.abort("sigterm", error="Boom()", round_index=9)
        record = load_heartbeat(path)[-1]
        assert record["kind"] == "abort"
        assert record["reason"] == "sigterm"
        assert record["error"] == "Boom()"
        assert record["round"] == 9

    def test_bad_cadence_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="cadence"):
            HeartbeatWriter(tmp_path / "hb.jsonl", every=0)

    def test_due_follows_cadence(self, tmp_path):
        writer = HeartbeatWriter(tmp_path / "hb.jsonl", every=5)
        assert [r for r in range(12) if writer.due(r)] == [0, 5, 10]


class TestTickPayload:
    def test_deterministic_fields_top_level_timing_quarantined(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        writer = HeartbeatWriter(path)
        _start(writer)
        writer.tick(
            round_index=3,
            stage="eval",
            eval_round=2,
            active_pms=8,
            overloaded_pms=1,
            shard_imbalance=1.25,  # still accepted (benchmarks/e2e), ignored
        )
        tick = load_heartbeat(path)[-1]
        assert tick["round"] == 3 and tick["stage"] == "eval"
        assert tick["eval_round"] == 2
        assert tick["active_pms"] == 8 and tick["overloaded_pms"] == 1
        # Everything wall-derived lives under "timing", and nothing else.
        assert set(tick["timing"]) == {"wall_s", "unix_time"}
        deterministic = {k: v for k, v in tick.items() if k != "timing"}
        assert "wall_s" not in json.dumps(deterministic)

    def test_counter_deltas_not_totals(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        writer = HeartbeatWriter(path)
        _start(writer)
        registry = TelemetryRegistry()
        total = {"value": 10.0}
        registry.register_counters("net", lambda: {"sent": total["value"]})
        registry.end_round(0)
        writer.tick(round_index=0, stage="warmup", telemetry=registry)
        total["value"] = 25.0
        registry.end_round(1)
        writer.tick(round_index=1, stage="warmup", telemetry=registry)
        ticks = [r for r in load_heartbeat(path) if r["kind"] == "tick"]
        assert ticks[0]["counters"]["net/sent"] == 10.0
        assert ticks[1]["counters"]["net/sent"] == 15.0

    def test_zero_deltas_omitted(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        writer = HeartbeatWriter(path)
        _start(writer)
        registry = TelemetryRegistry()
        registry.register_counters("net", lambda: {"sent": 5.0})
        registry.end_round(0)
        writer.tick(round_index=0, stage="warmup", telemetry=registry)
        registry.end_round(1)  # total unchanged -> delta 0
        writer.tick(round_index=1, stage="warmup", telemetry=registry)
        ticks = [r for r in load_heartbeat(path) if r["kind"] == "tick"]
        assert ticks[1]["counters"] == {}

    def test_latest_gauge_sample_rides_along(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        writer = HeartbeatWriter(path)
        _start(writer)
        registry = _telemetry_with(1.0)
        registry.end_round(0)
        writer.tick(round_index=0, stage="warmup", telemetry=registry)
        tick = load_heartbeat(path)[-1]
        assert tick["gauges"]["glap/q_cosine"] == 0.5

    def test_disabled_telemetry_yields_empty_sections(self, tmp_path):
        from repro.obs.telemetry import NULL_TELEMETRY

        path = tmp_path / "hb.jsonl"
        writer = HeartbeatWriter(path)
        _start(writer)
        writer.tick(round_index=0, stage="warmup", telemetry=NULL_TELEMETRY)
        tick = load_heartbeat(path)[-1]
        assert tick["counters"] == {} and tick["gauges"] == {}


class TestResume:
    def _stream_with_ticks(self, path) -> HeartbeatWriter:
        writer = HeartbeatWriter(path)
        _start(writer)
        registry = TelemetryRegistry()
        total = {"value": 0.0}
        registry.register_counters("net", lambda: {"sent": total["value"]})
        for r in range(3):
            total["value"] += 4.0
            registry.end_round(r)
            writer.tick(round_index=r, stage="warmup", telemetry=registry)
        return writer

    def test_resume_appends_marker_and_continues_file(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        self._stream_with_ticks(path)
        resumed = HeartbeatWriter(path)
        _start(resumed, resumed_from=2)
        kinds = [r["kind"] for r in load_heartbeat(path)]
        assert kinds == ["header", "tick", "tick", "tick", "resumed"]
        marker = load_heartbeat(path)[-1]
        assert marker["resumed_from"] == 2

    def test_resume_rebuilds_counter_baseline(self, tmp_path):
        """Deltas after a resume continue from the cumulative total at
        the last surviving tick — the stream reads as uninterrupted."""
        path = tmp_path / "hb.jsonl"
        self._stream_with_ticks(path)  # totals reach 12.0

        resumed = HeartbeatWriter(path)
        _start(resumed, resumed_from=2)
        registry = TelemetryRegistry()
        registry.register_counters("net", lambda: {"sent": 16.0})
        registry.end_round(3)
        resumed.tick(round_index=3, stage="warmup", telemetry=registry)
        last = load_heartbeat(path)[-1]
        assert last["counters"]["net/sent"] == 4.0  # 16 - 12, not 16

    def test_resume_repairs_torn_tail(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        self._stream_with_ticks(path)
        with path.open("a") as fh:
            fh.write('{"v":1,"kind":"tick","rou')  # the dead writer's last gasp
        resumed = HeartbeatWriter(path)
        _start(resumed, resumed_from=2)
        # Strict read succeeds: the torn line is gone, the marker follows.
        records = list(read_heartbeat(path, allow_partial_tail=False))
        assert [r["kind"] for r in records[-2:]] == ["tick", "resumed"]

    def test_resume_into_missing_file_writes_fresh_header(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        writer = HeartbeatWriter(path)
        _start(writer, resumed_from=5)
        assert [r["kind"] for r in load_heartbeat(path)] == ["header"]


class TestReader:
    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        path.write_text('{"v":1,"kind":"mystery"}\n')
        with pytest.raises(ValueError, match="unknown kind"):
            load_heartbeat(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        path.write_text('{"v":99,"kind":"tick"}\n')
        with pytest.raises(ValueError, match="version"):
            load_heartbeat(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        path.write_text("[1,2]\n")
        with pytest.raises(ValueError, match="expected an object"):
            load_heartbeat(path)

    def test_partial_tail_default_on_load(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        writer = HeartbeatWriter(path)
        _start(writer)
        with path.open("a") as fh:
            fh.write('{"v":1,"kind":"tick","rou')
        assert len(load_heartbeat(path)) == 1  # live-file tolerance

    def test_kind_vocabulary_closed(self):
        assert HEARTBEAT_KINDS == {"header", "tick", "resumed", "abort", "complete"}
