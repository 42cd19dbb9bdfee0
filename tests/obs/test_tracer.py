"""Tests for repro.obs.tracer — typed events, JSONL round-trip, no-ops."""

import io
import json

import pytest

from repro.obs.tracer import (
    ENVELOPE_KEYS,
    EVENT_KINDS,
    NULL_TRACER,
    JsonlTracer,
    RecordingTracer,
    Tracer,
    load_trace,
    read_trace,
)


class TestNullTracer:
    def test_disabled_by_default(self):
        assert NULL_TRACER.enabled is False
        assert Tracer().enabled is False

    def test_emit_discards_everything(self):
        NULL_TRACER.emit("migration", 3, 1, vm=7, dst=2)  # no error, no effect

    def test_emit_does_not_validate(self):
        # The no-op path must stay free of per-event work; validation
        # happens only on enabled tracers.
        NULL_TRACER.emit("definitely_not_registered", 0, 0)

    def test_close_idempotent_and_context_manager(self):
        with Tracer() as t:
            t.close()
        t.close()


class TestRecordingTracer:
    def test_records_envelope_and_fields(self):
        tr = RecordingTracer()
        tr.emit("migration", 5, 2, vm=9, dst=3)
        assert tr.events == [{"ev": "migration", "round": 5, "node": 2, "vm": 9, "dst": 3}]

    def test_unknown_kind_raises(self):
        tr = RecordingTracer()
        with pytest.raises(ValueError, match="unknown event kind"):
            tr.emit("not_a_kind", 0, 0)

    def test_envelope_collision_raises(self):
        tr = RecordingTracer()
        # "node" is a positional parameter so Python itself rejects it;
        # the remaining envelope keys are guarded explicitly.
        for key in ("ev", "round"):
            with pytest.raises(ValueError, match="collides"):
                tr.emit("migration", 0, 0, **{key: 1})

    def test_of_kind_filters(self):
        tr = RecordingTracer()
        tr.emit("pm_sleep", 1, 4)
        tr.emit("migration", 1, 4, vm=1, dst=2)
        tr.emit("pm_sleep", 2, 5)
        assert [e["node"] for e in tr.of_kind("pm_sleep")] == [4, 5]

    def test_of_kind_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            RecordingTracer().of_kind("bogus")


class TestJsonlTracer:
    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlTracer(path) as tr:
            tr.emit("q_push", 10, 3, peer=7, entries=42)
            tr.emit("pm_wake", 11, 3, recover=True)
        events = load_trace(path)
        assert events == [
            {"ev": "q_push", "round": 10, "node": 3, "peer": 7, "entries": 42},
            {"ev": "pm_wake", "round": 11, "node": 3, "recover": True},
        ]
        assert tr.events_emitted == 2

    def test_stream_sink_left_open(self):
        buf = io.StringIO()
        tr = JsonlTracer(buf)
        tr.emit("pm_crash", 0, 9)
        tr.close()
        assert not buf.closed  # caller-owned stream
        buf.seek(0)
        assert load_trace(buf) == [{"ev": "pm_crash", "round": 0, "node": 9}]

    def test_one_compact_object_per_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlTracer(path) as tr:
            tr.emit("eviction", 2, 1, peer=2, vm=3, outcome="migrated")
        (line,) = path.read_text().splitlines()
        assert " " not in line  # compact separators
        assert list(json.loads(line))[:3] == ["ev", "round", "node"]

    def test_envelope_coerced_to_int(self, tmp_path):
        import numpy as np

        path = tmp_path / "t.jsonl"
        with JsonlTracer(path) as tr:
            tr.emit("pm_sleep", np.int64(4), np.int64(2))
        assert load_trace(path) == [{"ev": "pm_sleep", "round": 4, "node": 2}]


class TestReadTrace:
    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"ev":"pm_sleep","round":1,"node":2}\n\n')
        assert len(load_trace(path)) == 1

    def test_invalid_json_names_the_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"ev":"pm_sleep","round":1,"node":2}\n{nope\n')
        with pytest.raises(ValueError, match="line 2"):
            load_trace(path)

    def test_missing_envelope_key_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"ev":"pm_sleep","round":1}\n')
        with pytest.raises(ValueError, match="missing envelope keys.*node"):
            load_trace(path)

    def test_unknown_kind_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"ev":"mystery","round":1,"node":2}\n')
        with pytest.raises(ValueError, match="unknown event kind"):
            load_trace(path)

    def test_non_object_line_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("[1,2,3]\n")
        with pytest.raises(ValueError, match="expected an object"):
            load_trace(path)

    def test_lazy_iterator(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"ev":"pm_sleep","round":1,"node":2}\n{broken\n')
        it = read_trace(path)
        assert next(it)["ev"] == "pm_sleep"  # first line fine
        with pytest.raises(ValueError, match="line 2"):
            next(it)


class TestPartialTail:
    """Tail-tolerant reading of a live (or crashed) trace file.

    A tracer that dies mid-append leaves a torn final line; with
    ``allow_partial_tail=True`` the readers stop cleanly before it
    instead of raising — interior corruption still raises.
    """

    GOOD = '{"ev":"pm_sleep","round":1,"node":2}\n'

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("")
        assert list(read_trace(path, allow_partial_tail=True)) == []

    def test_truncated_tail_tolerated(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(self.GOOD + '{"ev":"pm_wake","rou')
        events = list(read_trace(path, allow_partial_tail=True))
        assert [e["ev"] for e in events] == ["pm_sleep"]

    def test_truncated_tail_raises_by_default(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(self.GOOD + '{"ev":"pm_wake","rou')
        with pytest.raises(ValueError, match="line 2"):
            load_trace(path)

    def test_interior_corruption_still_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(self.GOOD + "{torn\n" + self.GOOD)
        with pytest.raises(ValueError, match="line 2"):
            list(read_trace(path, allow_partial_tail=True))

    def test_resumed_append_after_torn_tail(self, tmp_path):
        """The resume scenario: a repaired file (torn tail truncated)
        appended to by a new writer reads back whole under either mode."""
        path = tmp_path / "t.jsonl"
        path.write_text(self.GOOD + '{"ev":"pm_wake","rou')
        # Repair exactly as HeartbeatWriter does: drop past the last \n.
        data = path.read_bytes()
        path.write_bytes(data[: data.rfind(b"\n") + 1])
        with path.open("a") as sink:
            with JsonlTracer(sink) as tr:
                tr.emit("pm_wake", 2, 3, recover=False)
        assert [e["ev"] for e in load_trace(path)] == ["pm_sleep", "pm_wake"]

    def test_validation_errors_not_downgraded(self, tmp_path):
        """allow_partial_tail forgives torn JSON only — a *parseable*
        final line that fails event validation still raises."""
        path = tmp_path / "t.jsonl"
        path.write_text(self.GOOD + '{"ev":"mystery","round":1,"node":2}\n')
        with pytest.raises(ValueError, match="unknown event kind"):
            list(read_trace(path, allow_partial_tail=True))


def test_event_vocabulary_is_closed_and_documented():
    # The reader and the emitters must agree on one vocabulary.
    assert "migration" in EVENT_KINDS
    assert len(EVENT_KINDS) == 10

