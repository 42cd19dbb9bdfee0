"""Property-based checkpoint round-trips.

Hypothesis explores the (scenario shape, policy, fault plan, cut point)
space and asserts the one property that matters: checkpoint at an
arbitrary evaluation round, resume in a fresh in-process environment,
and every metric and series of the finished run is bit-identical to the
uninterrupted baseline.  The golden equivalence suite pins specific
cells cross-process; this suite guards the *generality* of the claim.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.glap import GlapConfig
from repro.experiments.runner import make_policy, resume_policy, run_policy
from repro.experiments.scenarios import Scenario
from repro.faults.plan import FaultPlan
from repro.traces.google import GoogleTraceParams
from tests.golden.test_golden_runs import digest_run

POLICY_KWARGS = {"GLAP": {"config": GlapConfig(aggregation_rounds=3)}}


def _make_plan(loss: float, churn: float):
    if loss == 0.0 and churn == 0.0:
        return None
    plan = FaultPlan.message_loss(loss) if loss > 0.0 else None
    if churn > 0.0:
        churn_plan = FaultPlan.churn(churn, downtime_rounds=2)
        plan = churn_plan if plan is None else plan.merged(churn_plan)
    return plan


class _Interrupted(Exception):
    pass


@st.composite
def run_specs(draw):
    return {
        "n_pms": draw(st.integers(min_value=4, max_value=10)),
        "ratio": draw(st.integers(min_value=2, max_value=3)),
        "rounds": draw(st.integers(min_value=4, max_value=10)),
        "warmup": draw(st.integers(min_value=8, max_value=12)),
        "seed_rep": draw(st.integers(min_value=0, max_value=3)),
        "policy": draw(
            st.sampled_from(["GLAP", "GRMP", "EcoCloud", "PABFD"])
        ),
        "loss": draw(st.sampled_from([0.0, 0.25])),
        "churn": draw(st.sampled_from([0.0, 0.03])),
        "cut": draw(st.integers(min_value=1, max_value=3)),
    }


def _assert_round_trip_bit_identical(spec, tmp_path_factory):
    scenario = Scenario(
        n_pms=spec["n_pms"],
        ratio=spec["ratio"],
        rounds=spec["rounds"],
        warmup_rounds=spec["warmup"],
        repetitions=1,
        trace_params=GoogleTraceParams(rounds_per_day=spec["warmup"]),
        faults=_make_plan(spec["loss"], spec["churn"]),
    )
    seed = scenario.seed_of(spec["seed_rep"])
    kwargs = POLICY_KWARGS.get(spec["policy"], {})
    cut = min(spec["cut"], scenario.rounds - 1)

    baseline = run_policy(scenario, make_policy(spec["policy"], **kwargs), seed)

    ckpt = tmp_path_factory.mktemp("ckpt") / "ck.json"

    def interrupt(r, dc, sim):
        # The checkpoint for eval round `cut` lands at the end of
        # iteration r == cut - 1; die on the following round.
        if r == cut:
            raise _Interrupted

    with pytest.raises(_Interrupted):
        run_policy(
            scenario,
            make_policy(spec["policy"], **kwargs),
            seed,
            round_hook=interrupt,
            checkpoint_every=cut,
            checkpoint_path=ckpt,
        )

    resumed = resume_policy(ckpt, make_policy(spec["policy"], **kwargs))
    assert digest_run(resumed) == digest_run(baseline)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=run_specs())
def test_checkpoint_round_trip_is_bit_identical(spec, tmp_path_factory):
    _assert_round_trip_bit_identical(spec, tmp_path_factory)


@pytest.mark.slow
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=run_specs())
def test_checkpoint_round_trip_is_bit_identical_deep(spec, tmp_path_factory):
    """The same property with a deeper search budget (nightly tier)."""
    _assert_round_trip_bit_identical(spec, tmp_path_factory)
