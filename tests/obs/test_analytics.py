"""Unit tests for trace analytics: derived analyses, checks, diffing."""

import json

import pytest

from repro.obs.analytics import (
    check_message_conservation,
    check_migration_pairing,
    check_sleep_wake,
    diff_traces,
    event_counts,
    format_diff,
    format_health_report,
    health_report,
    migration_matrix,
    overload_episodes,
    overloaded_per_round,
)
from repro.obs.tracer import read_trace


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


# -- derived analyses ---------------------------------------------------------


def test_migration_matrix():
    events = [mig(1, 7, 0, 2), mig(2, 8, 0, 2), mig(3, 9, 2, 1)]
    m = migration_matrix(events)
    assert m.shape == (3, 3)
    assert m[0, 2] == 2 and m[2, 1] == 1 and m.sum() == 3
    assert migration_matrix(events, n_pms=5).shape == (5, 5)
    empty = migration_matrix([], n_pms=4)
    assert empty.shape == (4, 4) and empty.sum() == 0


def test_overload_episodes_pairing_and_durations():
    events = [
        ev("overload_enter", 2, 0),
        ev("overload_exit", 5, 0),
        ev("overload_enter", 4, 1),  # still open at trace end
    ]
    episodes, violations = overload_episodes(events)
    assert violations == []
    assert episodes == [(0, 2, 5), (1, 4, None)]
    rounds, counts = overloaded_per_round(episodes)
    assert list(rounds) == [2, 3, 4, 5]
    # PM 0 overloaded rounds 2-4 (exit at 5), PM 1 open from round 4
    assert list(counts) == [1, 1, 2, 1]


def test_overload_alternation_violations():
    events = [
        ev("overload_enter", 1, 0),
        ev("overload_enter", 2, 0),  # double enter
        ev("overload_exit", 3, 4),  # exit without enter
    ]
    _, violations = overload_episodes(events)
    assert len(violations) == 2
    assert "still open" in violations[0]
    assert "without a matching" in violations[1]


# -- conservation checks ------------------------------------------------------


def test_migration_pairing_clean():
    assert check_migration_pairing(PAIRED) == []


def test_migration_pairing_detects_missing_migration():
    violations = check_migration_pairing([evict(3, 7, 1, 2)])  # never migrated
    assert len(violations) == 1 and "migrated 0x" in violations[0]


def test_migration_pairing_detects_unmatched_migration():
    events = [evict(3, 7, 1, 2), mig(3, 7, 1, 2), mig(9, 9, 4, 5)]
    violations = check_migration_pairing(events)
    assert len(violations) == 1 and "without accepted eviction" in violations[0]


def test_migration_pairing_exempts_eviction_free_traces():
    # baselines migrate without an eviction decision loop
    assert check_migration_pairing([mig(1, 7, 0, 2)]) == []


def test_sleep_wake_rules():
    ok = [
        ev("pm_wake", 1, 3),  # wake without sleep is legal (recover)
        ev("pm_sleep", 2, 3),
        ev("pm_wake", 4, 3),
        ev("pm_sleep", 5, 3),
        ev("pm_restart", 6, 3),  # restart resets tracking
        ev("pm_sleep", 7, 3),
    ]
    assert check_sleep_wake(ok) == []
    bad = [ev("pm_sleep", 1, 3), ev("pm_sleep", 4, 3)]
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
    diff = diff_traces(PAIRED, PAIRED)
    assert diff["identical"] is True
    assert diff["count_deltas"] == {}
    assert diff["first_divergence_round"] is None
    assert "identical" in format_diff(diff)


def test_diff_reports_deltas_and_first_divergence():
    b = PAIRED + [ev("pm_sleep", 4, 1)]
    diff = diff_traces(PAIRED, b)
    assert diff["identical"] is False
    assert diff["count_deltas"] == {"pm_sleep": 1}
    assert diff["first_divergence_round"] == 4
    assert "pm_sleep" in format_diff(diff)


def test_diff_catches_same_counts_different_rounds():
    a = [mig(1, 7, 0, 2)]
    b = [mig(2, 7, 0, 2)]
    diff = diff_traces(a, b)
    assert diff["identical"] is False
    assert diff["count_deltas"] == {}
    assert diff["first_divergence_round"] == 1


# -- the health verdict -------------------------------------------------------


def test_health_report_requires_some_input():
    with pytest.raises(ValueError):
        health_report()


def test_health_report_healthy_trace():
    report = health_report(events=PAIRED)
    assert report["healthy"] is True
    assert report["violations"] == []
    assert report["migrations"]["total"] == 1
    assert "message_conservation" not in report["checks_run"]
    text = format_health_report(report)
    assert "HEALTHY" in text and "0 violations" in text


def test_health_report_reads_a_jsonl_trace_in_one_pass(tmp_path):
    path = tmp_path / "trace.jsonl"
    events = PAIRED + [ev("overload_enter", 2, 0), ev("pm_sleep", 6, 3)]
    path.write_text("".join(json.dumps(e) + "\n" for e in events))
    report = health_report(events=read_trace(path))
    assert report["events"] == event_counts(read_trace(path)) == {
        "eviction": 3, "migration": 1, "overload_enter": 1, "pm_sleep": 1,
    }
    assert report["healthy"] is True
    assert report == health_report(events=events)


def test_health_report_carries_the_overload_series():
    events = [
        ev("overload_enter", 2, 0),
        ev("overload_exit", 5, 0),
        ev("overload_enter", 4, 1),
    ]
    report = health_report(events=events)
    episodes, _ = overload_episodes(events)
    rounds, counts = overloaded_per_round(episodes)
    assert report["overload"]["per_round"] == {
        "rounds": rounds.tolist(), "overloaded": counts.tolist(),
    }
    assert "overloaded PMs" in format_health_report(report)
    assert health_report(events=[])["overload"]["per_round"] == {
        "rounds": [], "overloaded": [],
    }


def test_health_report_flags_violations():
    report = health_report(events=[evict(3, 7, 1, 2)])
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
