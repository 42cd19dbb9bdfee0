"""Property-based analytics invariants on adversarial event streams.

Hypothesis generates arbitrary (but schema-valid) event streams and
asserts the analytics layer's structural guarantees: derived analyses
never crash or double-count, the conservation
checks flag *exactly* the violations seeded into a stream, and diffing
is a faithful equivalence relation.  The unit suite pins behaviour on
hand-written streams; this suite guards against the unbounded tail of
orderings the simulator can legally emit.
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.analytics import (
    check_migration_pairing,
    check_sleep_wake,
    diff_traces,
    event_counts,
    health_report,
    migration_matrix,
    overload_episodes,
    overloaded_per_round,
)

rounds = st.integers(min_value=0, max_value=20)
pms = st.integers(min_value=0, max_value=6)
vms = st.integers(min_value=0, max_value=10)


@st.composite
def events(draw):
    kind = draw(
        st.sampled_from(
            [
                "migration",
                "eviction",
                "pm_sleep",
                "pm_wake",
                "pm_crash",
                "pm_restart",
                "overload_enter",
                "overload_exit",
                "q_push",
            ]
        )
    )
    event = {"ev": kind, "round": draw(rounds), "node": draw(pms)}
    if kind == "migration":
        event.update(vm=draw(vms), dst=draw(pms), energy_j=1.0)
    elif kind == "eviction":
        event.update(
            vm=draw(vms),
            peer=draw(pms),
            outcome=draw(
                st.sampled_from(["migrated", "q_in_reject", "capacity_reject"])
            ),
        )
    elif kind == "q_push":
        event.update(peer=draw(pms))
    return event


streams = st.lists(events(), max_size=60)


@given(streams)
@settings(max_examples=100, deadline=None)
def test_analyses_total_and_never_crash(stream):
    """Every analysis runs on any valid stream and accounts for every event."""
    counts = event_counts(stream)
    assert sum(counts.values()) == len(stream)
    matrix = migration_matrix(stream)
    assert matrix.sum() == counts.get("migration", 0)
    # the report's route counts are the matrix's, without building it
    assert health_report(events=iter(stream))["migrations"] == {
        "total": int(matrix.sum()),
        "distinct_routes": int(np.count_nonzero(matrix)),
    }
    episodes, violations = overload_episodes(stream)
    # every enter opens an episode unless a later enter overwrote it (a
    # flagged violation); every unmatched exit is a violation too
    n_exit_violations = sum("without a matching" in v for v in violations)
    n_double_enters = sum("still open" in v for v in violations)
    assert len(episodes) == counts.get("overload_enter", 0) - n_double_enters
    assert (
        len([e for e in episodes if e[2] is not None]) + n_exit_violations
        == counts.get("overload_exit", 0)
    )
    overloaded_rounds, overloaded_counts = overloaded_per_round(episodes)
    assert len(overloaded_rounds) == len(overloaded_counts)
    check_migration_pairing(stream)
    check_sleep_wake(stream)


@given(streams)
@settings(max_examples=100, deadline=None)
def test_migration_pairing_flags_exactly_the_imbalance(stream):
    """Violation count equals the multiset imbalance seeded into the stream."""
    accepted = Counter(
        (e["round"], e["vm"], e["node"], e["peer"])
        for e in stream
        if e["ev"] == "eviction" and e["outcome"] == "migrated"
    )
    migrated = Counter(
        (e["round"], e["vm"], e["node"], e["dst"])
        for e in stream
        if e["ev"] == "migration"
    )
    expected = sum(1 for k in accepted if migrated.get(k, 0) < accepted[k])
    if accepted:
        expected += sum(1 for k in migrated if accepted.get(k, 0) < migrated[k])
    assert len(check_migration_pairing(stream)) == expected


@given(streams)
@settings(max_examples=100, deadline=None)
def test_sleep_wake_flags_exactly_double_sleeps(stream):
    asleep = set()
    expected = 0
    ordered = sorted(
        (e for e in stream if e["ev"].startswith("pm_")),
        key=lambda e: e["round"],
    )
    # stable sort preserves file order within a round, matching the checker
    for e in ordered:
        if e["ev"] == "pm_sleep":
            if e["node"] in asleep:
                expected += 1
            asleep.add(e["node"])
        elif e["ev"] in ("pm_wake", "pm_restart", "pm_crash"):
            asleep.discard(e["node"])
    assert len(check_sleep_wake(stream)) == expected


@given(streams, streams)
@settings(max_examples=100, deadline=None)
def test_diff_is_an_equivalence_verdict(a, b):
    assert diff_traces(a, a)["identical"] is True
    diff_ab = diff_traces(a, b)
    diff_ba = diff_traces(b, a)
    assert diff_ab["identical"] == diff_ba["identical"]
    assert diff_ab["first_divergence_round"] == diff_ba["first_divergence_round"]
    assert diff_ab["count_deltas"] == {
        k: -v for k, v in diff_ba["count_deltas"].items()
    }
    # same per-round per-kind counts on both sides => verdict "identical"
    per_round_a = Counter((e["round"], e["ev"]) for e in a)
    per_round_b = Counter((e["round"], e["ev"]) for e in b)
    assert diff_ab["identical"] == (per_round_a == per_round_b)
