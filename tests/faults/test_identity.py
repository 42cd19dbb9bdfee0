"""The zero-fault identity contract.

Routing a run through the full chaos machinery — FaultController
installed, fault RNG bound to the network, InvariantObserver attached —
with a plan that injects *nothing* must be bit-identical to the plain
no-faults path, for every collected metric of every policy.  This is
what makes chaos results comparable to baseline results: the machinery
itself is proven weightless.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.glap import GlapConfig
from repro.experiments.runner import POLICY_NAMES, make_policy, run_policy
from repro.experiments.scenarios import Scenario
from repro.faults import FaultPhase, FaultPlan
from repro.traces.google import GoogleTraceParams

SCENARIO = Scenario(
    n_pms=12,
    ratio=2,
    rounds=15,
    warmup_rounds=15,
    repetitions=1,
    trace_params=GoogleTraceParams(rounds_per_day=15),
)
POLICY_KWARGS = {"GLAP": {"config": GlapConfig(aggregation_rounds=5)}}


def metric_fields(result):
    """All measured scalar fields (everything except extras/series)."""
    out = {}
    for f in dataclasses.fields(result):
        if f.name in ("series", "extras"):
            continue
        out[f.name] = getattr(result, f.name)
    return out


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_zero_fault_plan_is_bit_identical(policy_name):
    kwargs = POLICY_KWARGS.get(policy_name, {})
    seed = SCENARIO.seed_of(0)
    plain = run_policy(SCENARIO, make_policy(policy_name, **kwargs), seed)
    chaos = run_policy(
        SCENARIO.with_faults(FaultPlan.none()),
        make_policy(policy_name, **kwargs),
        seed,
    )
    assert metric_fields(plain) == metric_fields(chaos)
    assert set(plain.series) == set(chaos.series)
    for name in plain.series:
        assert np.array_equal(plain.series[name], chaos.series[name]), name
    # The machinery ran and reports itself honestly: nothing injected,
    # every round checked (warmup + evaluation).
    assert chaos.extras["fault_crashes"] == 0.0
    assert chaos.extras["messages_dropped"] == 0.0
    assert chaos.extras["invariant_rounds_checked"] == float(
        SCENARIO.warmup_rounds + SCENARIO.rounds
    )


def test_zero_loss_phase_is_also_identical():
    """A plan with *structurally present* but zero-valued phases is null."""
    plan = FaultPlan(phases=(FaultPhase(start_round=0, loss=0.0),))
    assert plan.is_null
    seed = SCENARIO.seed_of(0)
    plain = run_policy(SCENARIO, make_policy("GRMP"), seed)
    chaos = run_policy(
        SCENARIO.with_faults(plan, check_invariants=False), make_policy("GRMP"), seed
    )
    assert metric_fields(plain) == metric_fields(chaos)
    for name in plain.series:
        assert np.array_equal(plain.series[name], chaos.series[name]), name

