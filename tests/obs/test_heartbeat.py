"""Tests for repro.obs.heartbeat — the streaming live-run sink.

Covers the writer's lifecycle (header / ticks / terminal markers), the
deterministic-vs-timing field split, cadence, ticks that carry the
registry's totals, resume continuity (torn-tail repair (atomic), no
counter baseline, and the ``resumed`` marker), and the post-mortem: the
event ring teed off the tracer and the ``abort`` record that carries it.
"""

import json
import pathlib

import pytest

from repro.obs import heartbeat as heartbeat_module
from repro.obs.heartbeat import (
    HEARTBEAT_KINDS,
    HEARTBEAT_VERSION,
    RING_EVENTS,
    HeartbeatWriter,
    load_heartbeat,
    read_heartbeat,
)
from repro.obs.telemetry import TelemetryRegistry
from repro.obs.tracer import NULL_TRACER, RecordingTracer


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
        writer.tick(round_index=9, stage="warmup")
        writer.abort("sigterm", error="Boom()")
        record = load_heartbeat(path)[-1]
        assert record["kind"] == "abort"
        assert record["reason"] == "sigterm"
        assert record["error"] == "Boom()"
        assert record["round"] == 9  # the last round ticked

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

    def test_counters_are_the_registry_totals(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        writer = HeartbeatWriter(path)
        _start(writer)
        registry = TelemetryRegistry()
        total, td = {"value": 10.0}, {"value": 0.0}
        registry.register_counters("net", lambda: {"sent": total["value"]})
        registry.register_counters("glap", lambda: {"td_error_abs": td["value"]})
        registry.end_round(0)
        writer.tick(round_index=0, stage="warmup", telemetry=registry)
        total["value"] = 25.0
        td["value"] += 0.1
        td["value"] += 0.2
        registry.end_round(1)
        writer.tick(round_index=1, stage="warmup", telemetry=registry)
        ticks = [r for r in load_heartbeat(path) if r["kind"] == "tick"]
        assert ticks[0]["counters"] == {"net/sent": 10.0, "glap/td_error_abs": 0.0}
        # Cumulative, float counters bit for bit: what totals() says.
        assert ticks[1]["counters"] == registry.totals()
        assert ticks[1]["counters"] == {"net/sent": 25.0, "glap/td_error_abs": 0.1 + 0.2}

    def test_unchanged_totals_repeat(self, tmp_path):
        """A counter that did not move is still on the tick: its total."""
        path = tmp_path / "hb.jsonl"
        writer = HeartbeatWriter(path)
        _start(writer)
        registry = TelemetryRegistry()
        registry.register_counters("net", lambda: {"sent": 5.0})
        registry.end_round(0)
        writer.tick(round_index=0, stage="warmup", telemetry=registry)
        registry.end_round(1)  # total unchanged
        writer.tick(round_index=1, stage="warmup", telemetry=registry)
        ticks = [r for r in load_heartbeat(path) if r["kind"] == "tick"]
        assert ticks[0]["counters"] == ticks[1]["counters"] == {"net/sent": 5.0}

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

    def test_resumed_tick_is_the_restored_registry(self, tmp_path):
        """The writer keeps no baseline: after a resume a tick carries
        the (restored) registry's totals, whatever the surviving ticks
        say — here stale ticks past the checkpoint that totalled 12."""
        path = tmp_path / "hb.jsonl"
        self._stream_with_ticks(path)  # ticks at totals 4, 8 and 12

        resumed = HeartbeatWriter(path)
        _start(resumed, resumed_from=1)
        registry = TelemetryRegistry()
        registry.register_counters("net", lambda: {"sent": 8.0})
        registry.end_round(2)
        resumed.tick(round_index=2, stage="warmup", telemetry=registry)
        assert not hasattr(resumed, "_prev")
        last = load_heartbeat(path)[-1]
        assert last["counters"] == {"net/sent": 8.0}

    def test_resume_repairs_torn_tail(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        self._stream_with_ticks(path)
        with path.open("a") as fh:
            fh.write('{"v":2,"kind":"tick","rou')  # the dead writer's last gasp
        resumed = HeartbeatWriter(path)
        _start(resumed, resumed_from=2)
        # Strict read succeeds: the torn line is gone, the marker follows.
        records = list(read_heartbeat(path, allow_partial_tail=False))
        assert [r["kind"] for r in records[-2:]] == ["tick", "resumed"]

    def test_repair_that_dies_mid_write_keeps_the_stream(self, tmp_path, monkeypatch):
        """The repaired stream replaces the file atomically: a write that
        raises half-way through the repair leaves the torn stream as it
        was, not a truncated one."""
        path = tmp_path / "hb.jsonl"
        self._stream_with_ticks(path)
        with path.open("a") as fh:
            fh.write('{"v":2,"kind":"tick","rou')
        before = path.read_bytes()
        real_open = pathlib.Path.open

        class _DiskFull:
            """A file handle that takes a few bytes, then fails."""

            def __init__(self, fh):
                self._fh = fh

            def write(self, data):
                self._fh.write(data[:8])
                raise OSError("disk full")

            def writelines(self, lines):
                for line in lines:
                    self.write(line)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()

        def failing_open(self, mode="r", *args, **kwargs):
            fh = real_open(self, mode, *args, **kwargs)
            return _DiskFull(fh) if "w" in mode else fh

        monkeypatch.setattr(pathlib.Path, "open", failing_open)
        with pytest.raises(OSError, match="disk full"):
            _start(HeartbeatWriter(path), resumed_from=2)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]  # no temp file left over

    def test_resume_into_missing_file_writes_fresh_header(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        writer = HeartbeatWriter(path)
        _start(writer, resumed_from=5)
        assert [r["kind"] for r in load_heartbeat(path)] == ["header"]


class TestRing:
    def test_tee_records_and_forwards(self, tmp_path):
        writer = HeartbeatWriter(tmp_path / "hb.jsonl")
        inner = RecordingTracer()
        tee = writer.wrap(inner)
        tee.emit("migration", 3, 1, vm=7, dst=2)
        expected = {"ev": "migration", "round": 3, "node": 1, "vm": 7, "dst": 2}
        assert writer.events == [expected]
        assert inner.events == [expected]

    def test_tee_over_null_tracer_still_records(self, tmp_path):
        """The ring wants events even when no trace file is written."""
        writer = HeartbeatWriter(tmp_path / "hb.jsonl")
        tee = writer.wrap(NULL_TRACER)
        assert tee.enabled is True
        tee.emit("pm_sleep", 0, 4)
        assert writer.events == [{"ev": "pm_sleep", "round": 0, "node": 4}]

    def test_ring_is_bounded_keeps_latest(self, tmp_path):
        writer = HeartbeatWriter(tmp_path / "hb.jsonl")
        tee = writer.wrap(NULL_TRACER)
        for r in range(RING_EVENTS + 10):
            tee.emit("pm_sleep", r, 0)
        rounds = [e["round"] for e in writer.events]
        assert rounds == list(range(10, RING_EVENTS + 10))

    def test_tee_validates_like_a_tracer(self, tmp_path):
        tee = HeartbeatWriter(tmp_path / "hb.jsonl").wrap(NULL_TRACER)
        with pytest.raises(ValueError, match="unknown event kind"):
            tee.emit("bogus", 0, 0)


class TestAbortRecord:
    def _writer(self, tmp_path) -> HeartbeatWriter:
        writer = HeartbeatWriter(tmp_path / "hb.jsonl")
        _start(writer)
        writer.wrap(NULL_TRACER).emit("pm_sleep", 1, 0)
        return writer

    def test_abort_record_carries_the_post_mortem(self, tmp_path):
        writer = self._writer(tmp_path)
        writer.checkpoint_saved(tmp_path / "ck.json", 5)
        writer.abort("sigterm", error="Signal(15)")
        record = load_heartbeat(writer.path)[-1]
        assert record["kind"] == "abort" and record["v"] == HEARTBEAT_VERSION
        assert record["reason"] == "sigterm" and record["error"] == "Signal(15)"
        assert record["round"] is None  # nothing ticked yet
        assert record["checkpoint"] == {
            "path": str(tmp_path / "ck.json"), "eval_rounds_done": 5,
        }
        assert record["events"] == [{"ev": "pm_sleep", "round": 1, "node": 0}]
        # The ticks before it hold the telemetry: the record has none.
        assert set(record) == {
            "v", "kind", "reason", "error", "round", "checkpoint", "events",
            "unix_time",
        }

    def test_interrupt_right_after_a_tick_append_names_that_tick(self, tmp_path, monkeypatch):
        """A signal handled between a tick's append and the return (the
        handler raises there) still leaves an ``abort`` record whose
        ``round`` is the stream's last tick."""
        writer = self._writer(tmp_path)
        writer.tick(round_index=0, stage="warmup")
        writer.tick(round_index=1, stage="warmup")

        append = heartbeat_module.append_jsonl

        def append_then_interrupt(payload, path):
            append(payload, path)
            raise KeyboardInterrupt  # what the run's signal handler raises

        monkeypatch.setattr(heartbeat_module, "append_jsonl", append_then_interrupt)
        with pytest.raises(KeyboardInterrupt):
            writer.tick(round_index=2, stage="warmup")
        monkeypatch.undo()
        writer.abort("sigterm")
        records = load_heartbeat(writer.path)
        ticks = [r["round"] for r in records if r["kind"] == "tick"]
        assert ticks == [0, 1, 2]
        assert records[-1]["kind"] == "abort" and records[-1]["round"] == ticks[-1]

    def test_a_resumed_run_names_only_its_own_ticks(self, tmp_path):
        """Ticks before the ``resumed`` marker belong to the dead
        process: a resume that dies before its first tick names none."""
        first = self._writer(tmp_path)
        for r in range(3):
            first.tick(round_index=r, stage="warmup")
        resumed = HeartbeatWriter(first.path)
        _start(resumed, resumed_from=1)
        resumed.abort("exception")
        assert load_heartbeat(first.path)[-1]["round"] is None
        resumed.tick(round_index=1, stage="warmup")
        resumed.abort("exception")
        assert load_heartbeat(first.path)[-1]["round"] == 1

    def test_unknown_reason_is_refused_and_writes_nothing(self, tmp_path):
        writer = self._writer(tmp_path)
        before = writer.path.read_bytes()
        with pytest.raises(ValueError, match="unknown abort reason 'manual'"):
            writer.abort("manual")
        assert writer.path.read_bytes() == before


class TestReader:
    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        path.write_text('{"v":2,"kind":"mystery"}\n')
        with pytest.raises(ValueError, match="unknown kind"):
            load_heartbeat(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        path.write_text('{"v":99,"kind":"tick"}\n')
        with pytest.raises(ValueError, match="version"):
            load_heartbeat(path)
        # Version 1 ticks carried deltas: read as totals they would lie.
        path.write_text('{"v":1,"kind":"header"}\n')
        with pytest.raises(ValueError, match="unsupported version 1"):
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
            fh.write('{"v":2,"kind":"tick","rou')
        assert len(load_heartbeat(path)) == 1  # live-file tolerance

    def test_kind_vocabulary_closed(self):
        assert HEARTBEAT_KINDS == {"header", "tick", "resumed", "abort", "complete"}
