"""Span arithmetic on a synthetic tree, and wrapper install/restore."""

import pytest

from spans import SpanRecorder


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_total_minus_children():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    #  run [0, 10]
    #    round [1, 7]
    #      proto [2, 3], proto [3, 5]
    #        emit [4, 4.5]   (inside the second proto)
    #    sample [8, 9]
    run = rec.begin("run")
    clock.now = 1.0
    rnd = rec.begin("round")
    clock.now = 2.0
    with rec.span("proto"):
        clock.now = 3.0
    p2 = rec.begin("proto")
    clock.now = 4.0
    with rec.span("emit"):
        clock.now = 4.5
    clock.now = 5.0
    rec.end(p2)
    clock.now = 7.0
    rec.end(rnd)
    clock.now = 8.0
    with rec.span("sample"):
        clock.now = 9.0
    clock.now = 10.0
    rec.end(run)

    agg = rec.aggregate()
    assert agg["run"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert agg["round"] == {"calls": 1, "total_s": 6.0, "self_s": 3.0}
    assert agg["proto"] == {"calls": 2, "total_s": 3.0, "self_s": 2.5}
    assert agg["emit"] == {"calls": 1, "total_s": 0.5, "self_s": 0.5}
    assert agg["sample"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    # Self times over all names add up to the root span.
    assert sum(row["self_s"] for row in agg.values()) == pytest.approx(10.0)
    assert rec.parents == [-1, 0, 1, 1, 3, 0]


def test_open_or_misnested_spans_are_errors():
    rec = SpanRecorder(FakeClock())
    outer = rec.begin("outer")
    rec.begin("inner")
    with pytest.raises(RuntimeError, match="out of order"):
        rec.end(outer)
    with pytest.raises(RuntimeError, match="still open"):
        rec.aggregate()


class Protocol:
    def execute_round(self, node, sim=None):
        return ("ran", node, sim)


def test_wrap_records_and_restore_removes_the_instance_attribute():
    rec = SpanRecorder(FakeClock())
    wrapped, untouched = Protocol(), Protocol()
    rec.wrap(wrapped, "execute_round", "layer:execute")
    assert "execute_round" in vars(wrapped)
    assert wrapped.execute_round(1, sim=2) == ("ran", 1, 2)
    untouched.execute_round(3)
    assert rec.aggregate()["layer:execute"]["calls"] == 1

    assert rec.restore() == 0
    assert "execute_round" not in vars(wrapped)
    wrapped.execute_round(4)
    assert rec.aggregate()["layer:execute"]["calls"] == 1


def test_wrap_closes_the_span_when_the_call_raises_and_keeps_own_attributes():
    rec = SpanRecorder(FakeClock())
    obj = Protocol()

    def boom():
        raise ValueError("boom")

    obj.hook = boom  # an attribute the instance already owns
    rec.wrap(obj, "hook", "layer:hook")
    with pytest.raises(ValueError):
        obj.hook()
    assert rec.aggregate()["layer:hook"]["calls"] == 1
    assert rec.restore() == 0
    assert obj.hook is boom
