"""Property-based chaos: arbitrary FaultPlans never break the system.

Hypothesis generates random-but-valid fault schedules — loss anywhere
in [0, 1], crash/restart sets over arbitrary rounds, partition cuts,
churn — and we require the same contract the hand-written grids assert:
the run completes without an escaping exception and the conservation
laws hold after every round.  GRMP is the canonical subject (the
fastest policy, so the search budget goes into plan shapes, not
simulation rounds); one slower sample runs the same property on GLAP.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.glap import GlapConfig
from repro.experiments.runner import make_policy, run_policy
from repro.experiments.scenarios import Scenario
from repro.faults import CrashEvent, FaultPhase, FaultPlan, RestartEvent
from repro.traces.google import GoogleTraceParams

N_PMS = 10
TOTAL_ROUNDS = 16  # 8 warmup + 8 evaluation

SCENARIO = Scenario(
    n_pms=N_PMS,
    ratio=2,
    rounds=8,
    warmup_rounds=8,
    repetitions=1,
    trace_params=GoogleTraceParams(rounds_per_day=8),
)

node_sets = st.sets(
    st.integers(min_value=0, max_value=N_PMS - 1), min_size=1, max_size=N_PMS // 2
).map(lambda s: tuple(sorted(s)))


@st.composite
def phases(draw):
    start = draw(st.integers(min_value=0, max_value=TOTAL_ROUNDS - 1))
    end = draw(
        st.one_of(
            st.none(), st.integers(min_value=start + 1, max_value=TOTAL_ROUNDS + 4)
        )
    )
    partition = ()
    if draw(st.booleans()):
        group = draw(node_sets)
        partition = (group,)  # the complement forms the implicit group
    return FaultPhase(
        start_round=start,
        end_round=end,
        loss=draw(st.floats(min_value=0.0, max_value=1.0)),
        partition=partition,
    )


@st.composite
def fault_plans(draw):
    crashes = tuple(
        CrashEvent(draw(st.integers(min_value=0, max_value=TOTAL_ROUNDS - 1)), ids)
        for ids in draw(st.lists(node_sets, max_size=2))
    )
    restarts = tuple(
        RestartEvent(draw(st.integers(min_value=0, max_value=TOTAL_ROUNDS - 1)), ids)
        for ids in draw(st.lists(node_sets, max_size=2))
    )
    return FaultPlan(
        phases=tuple(draw(st.lists(phases(), max_size=2))),
        crashes=crashes,
        restarts=restarts,
        churn_probability=draw(
            st.sampled_from([0.0, 0.01, 0.05, 0.2])
        ),
        churn_downtime_rounds=draw(st.integers(min_value=1, max_value=6)),
    )


@pytest.mark.slow
@given(plan=fault_plans(), seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_any_plan_preserves_invariants_grmp(plan, seed):
    result = run_policy(SCENARIO.with_faults(plan), make_policy("GRMP"), seed)
    assert result.extras["invariant_rounds_checked"] == float(TOTAL_ROUNDS)
    # Plan bookkeeping is self-consistent whatever the schedule did.
    assert result.extras["fault_restarts"] <= result.extras["fault_crashes"]
    assert result.extras["final_failed_nodes"] <= float(N_PMS)
    assert 0 <= result.final_active <= N_PMS


@pytest.mark.slow
@given(plan=fault_plans(), seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=5, deadline=None)
def test_any_plan_preserves_invariants_glap(plan, seed):
    result = run_policy(
        SCENARIO.with_faults(plan),
        make_policy("GLAP", config=GlapConfig(aggregation_rounds=4)),
        seed,
    )
    assert result.extras["invariant_rounds_checked"] == float(TOTAL_ROUNDS)
