"""Unit tests for trace analytics: frames, derived analyses, checks."""

import json

import numpy as np
import pytest

from repro.obs.analytics import (
    check_message_conservation,
    check_migration_pairing,
    check_sleep_wake,
    diff_frames,
    event_counts,
    format_diff,
    format_health_report,
    frame_from_events,
    health_report,
    load_frame,
    migration_matrix,
    overload_episodes,
    overloaded_per_round,
)


def ev(kind, r, node, **fields):
    return {"ev": kind, "round": r, "node": node, **fields}


def mig(r, vm, src, dst):
    return ev("migration", r, src, vm=vm, dst=dst, energy_j=1.0, duration_s=0.5)


def evict(r, vm, src, dst, outcome="migrated"):
    return ev("eviction", r, src, peer=dst, vm=vm, outcome=outcome)


PAIRED = [
    evict(3, 7, 1, 2),
    mig(3, 7, 1, 2),
    evict(4, 8, 2, 5, outcome="q_in_reject"),
    evict(5, 9, 2, 5, outcome="capacity_reject"),
]


# -- frames -------------------------------------------------------------------


def test_frame_columns_and_counts():
    frame = frame_from_events(PAIRED)
    assert frame.n_events == 4
    assert frame.kinds == ["eviction", "migration"]
    assert frame.count("eviction") == 3
    assert frame.count("pm_sleep") == 0
    rounds = frame.column("eviction", "round")
    assert isinstance(rounds, np.ndarray) and rounds.dtype == np.int64
    assert list(rounds) == [3, 4, 5]
    assert frame.column("migration", "dst") == [2]
    assert frame.column("pm_sleep", "anything") == []
    with pytest.raises(KeyError):
        frame.column("migration", "no_such_field")


def test_frame_backfills_mid_stream_fields():
    frame = frame_from_events(
        [ev("pm_wake", 1, 4), ev("pm_wake", 2, 5, recovered=True)]
    )
    assert frame.column("pm_wake", "recovered") == [None, True]


def test_load_frame_roundtrips_jsonl(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(json.dumps(e) + "\n" for e in PAIRED))
    frame = load_frame(path)
    assert event_counts(frame) == {"eviction": 3, "migration": 1}


# -- derived analyses ---------------------------------------------------------


def test_migration_matrix():
    frame = frame_from_events([mig(1, 7, 0, 2), mig(2, 8, 0, 2), mig(3, 9, 2, 1)])
    m = migration_matrix(frame)
    assert m.shape == (3, 3)
    assert m[0, 2] == 2 and m[2, 1] == 1 and m.sum() == 3
    assert migration_matrix(frame, n_pms=5).shape == (5, 5)
    empty = migration_matrix(frame_from_events([]), n_pms=4)
    assert empty.shape == (4, 4) and empty.sum() == 0


def test_overload_episodes_pairing_and_durations():
    frame = frame_from_events(
        [
            ev("overload_enter", 2, 0),
            ev("overload_exit", 5, 0),
            ev("overload_enter", 4, 1),  # still open at trace end
        ]
    )
    episodes, violations = overload_episodes(frame)
    assert violations == []
    assert episodes == [(0, 2, 5), (1, 4, None)]
    rounds, counts = overloaded_per_round(frame)
    assert list(rounds) == [2, 3, 4, 5]
    # PM 0 overloaded rounds 2-4 (exit at 5), PM 1 open from round 4
    assert list(counts) == [1, 1, 2, 1]


def test_overload_alternation_violations():
    frame = frame_from_events(
        [
            ev("overload_enter", 1, 0),
            ev("overload_enter", 2, 0),  # double enter
            ev("overload_exit", 3, 4),  # exit without enter
        ]
    )
    _, violations = overload_episodes(frame)
    assert len(violations) == 2
    assert "still open" in violations[0]
    assert "without a matching" in violations[1]


# -- conservation checks ------------------------------------------------------


def test_migration_pairing_clean():
    assert check_migration_pairing(frame_from_events(PAIRED)) == []


def test_migration_pairing_detects_missing_migration():
    frame = frame_from_events([evict(3, 7, 1, 2)])  # accepted, never migrated
    violations = check_migration_pairing(frame)
    assert len(violations) == 1 and "migrated 0x" in violations[0]


def test_migration_pairing_detects_unmatched_migration():
    frame = frame_from_events([evict(3, 7, 1, 2), mig(3, 7, 1, 2), mig(9, 9, 4, 5)])
    violations = check_migration_pairing(frame)
    assert len(violations) == 1 and "without accepted eviction" in violations[0]


def test_migration_pairing_exempts_eviction_free_traces():
    # baselines migrate without an eviction decision loop
    assert check_migration_pairing(frame_from_events([mig(1, 7, 0, 2)])) == []


def test_sleep_wake_rules():
    ok = frame_from_events(
        [
            ev("pm_wake", 1, 3),  # wake without sleep is legal (recover)
            ev("pm_sleep", 2, 3),
            ev("pm_wake", 4, 3),
            ev("pm_sleep", 5, 3),
            ev("pm_restart", 6, 3),  # restart resets tracking
            ev("pm_sleep", 7, 3),
        ]
    )
    assert check_sleep_wake(ok) == []
    bad = frame_from_events([ev("pm_sleep", 1, 3), ev("pm_sleep", 4, 3)])
    violations = check_sleep_wake(bad)
    assert len(violations) == 1 and "already asleep" in violations[0]


def test_message_conservation():
    good = {
        "net/sent": 10.0,
        "net/delivered": 8.0,
        "net/dropped": 2.0,
        "net/sent/glap": 10.0,
        "net/delivered/glap": 8.0,
        "net/dropped/glap": 2.0,
    }
    assert check_message_conservation(good) == []
    assert check_message_conservation({}) == []
    bad = dict(good, **{"net/delivered/glap": 7.0})
    violations = check_message_conservation(bad)
    assert len(violations) == 1 and "glap" in violations[0]


# -- diffing ------------------------------------------------------------------


def test_diff_identical():
    diff = diff_frames(frame_from_events(PAIRED), frame_from_events(PAIRED))
    assert diff["identical"] is True
    assert diff["count_deltas"] == {}
    assert diff["first_divergence_round"] is None
    assert "identical" in format_diff(diff)


def test_diff_reports_deltas_and_first_divergence():
    b = PAIRED + [ev("pm_sleep", 4, 1)]
    diff = diff_frames(frame_from_events(PAIRED), frame_from_events(b))
    assert diff["identical"] is False
    assert diff["count_deltas"] == {"pm_sleep": 1}
    assert diff["first_divergence_round"] == 4
    assert "pm_sleep" in format_diff(diff)


def test_diff_catches_same_counts_different_rounds():
    a = [mig(1, 7, 0, 2)]
    b = [mig(2, 7, 0, 2)]
    diff = diff_frames(frame_from_events(a), frame_from_events(b))
    assert diff["identical"] is False
    assert diff["count_deltas"] == {}
    assert diff["first_divergence_round"] == 1


# -- the health verdict -------------------------------------------------------


def test_health_report_requires_some_input():
    with pytest.raises(ValueError):
        health_report()


def test_health_report_healthy_trace():
    report = health_report(frame=frame_from_events(PAIRED))
    assert report["healthy"] is True
    assert report["violations"] == []
    assert report["migrations"]["total"] == 1
    assert "message_conservation" not in report["checks_run"]
    text = format_health_report(report)
    assert "HEALTHY" in text and "0 violations" in text


def test_health_report_flags_violations():
    frame = frame_from_events([evict(3, 7, 1, 2)])
    report = health_report(frame=frame)
    assert report["healthy"] is False
    assert report["violations"][0]["check"] == "migration_pairing"
    assert "UNHEALTHY" in format_health_report(report)


def test_health_report_telemetry_and_convergence_gate():
    telemetry = {
        "totals": {"net/sent": 4.0, "net/delivered": 4.0, "net/dropped": 0.0},
        "gauges": {"glap/q_cosine": {"rounds": [0, 10], "values": [0.4, 0.995]}},
    }
    report = health_report(telemetry=telemetry, min_convergence=0.99)
    assert report["healthy"] is True
    assert report["convergence"]["final"] == 0.995

    report = health_report(telemetry=telemetry, min_convergence=0.999)
    assert report["healthy"] is False
    assert report["violations"][0]["check"] == "convergence_threshold"

    no_gauge = {"totals": {}, "gauges": {}}
    report = health_report(telemetry=no_gauge, min_convergence=0.99)
    assert report["healthy"] is False
    assert "no Q-table convergence gauge" in report["violations"][0]["detail"]
