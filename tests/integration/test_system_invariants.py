"""System-level invariants that must hold for ANY policy at ANY round.

Property-style integration tests: run each policy with randomised small
scenarios and check conservation laws after every round:

* every VM is hosted by exactly one PM (no loss, no duplication);
* sleeping PMs host no VMs and never receive migrations;
* PM utilisation views equal the sum of their VMs' demands;
* migration records are consistent (src != dst, round stamps ordered).

The conservation laws themselves live in
:func:`repro.simulator.observer.check_datacenter_invariants` (shared
with the chaos subsystem's :class:`InvariantObserver`); this module
exercises them against every policy, including node-state coherence.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.glap import GlapConfig
from repro.experiments.runner import build_simulation, make_policy
from repro.experiments.scenarios import Scenario
from repro.simulator.observer import check_datacenter_invariants
from repro.traces.google import GoogleTraceParams


def check_invariants(dc, sim=None):
    check_datacenter_invariants(dc, sim=sim)


@pytest.mark.parametrize("policy_name", ["GLAP", "EcoCloud", "GRMP", "PABFD"])
@pytest.mark.parametrize("seed", [11, 23])
def test_invariants_every_round(policy_name, seed):
    scenario = Scenario(
        n_pms=15,
        ratio=3,
        rounds=25,
        warmup_rounds=25,
        repetitions=1,
        trace_params=GoogleTraceParams(rounds_per_day=25),
    )
    dc, sim, streams = build_simulation(scenario, seed)
    kwargs = {"config": GlapConfig(aggregation_rounds=8)} if policy_name == "GLAP" else {}
    policy = make_policy(policy_name, **kwargs)
    policy.attach(dc, sim, streams, scenario.warmup_rounds)
    for _ in range(scenario.warmup_rounds):
        dc.advance_round()
        sim.run_round()
        policy.step(dc, sim)
        check_invariants(dc, sim)
    policy.end_warmup(dc, sim)
    for _ in range(scenario.rounds):
        dc.advance_round()
        sim.run_round()
        policy.step(dc, sim)
        check_invariants(dc, sim)


@given(
    n_pms=st.integers(min_value=4, max_value=20),
    ratio=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=8, deadline=None)
def test_property_grmp_conserves_vms(n_pms, ratio, seed):
    """Fuzzed scenario shapes: the fastest policy, checked exhaustively."""
    scenario = Scenario(
        n_pms=n_pms,
        ratio=ratio,
        rounds=8,
        warmup_rounds=4,
        repetitions=1,
        trace_params=GoogleTraceParams(rounds_per_day=8),
    )
    dc, sim, streams = build_simulation(scenario, seed)
    policy = make_policy("GRMP")
    policy.attach(dc, sim, streams, scenario.warmup_rounds)
    for _ in range(scenario.warmup_rounds):
        dc.advance_round()
        sim.run_round()
    policy.end_warmup(dc, sim)
    for _ in range(scenario.rounds):
        dc.advance_round()
        sim.run_round()
        check_invariants(dc, sim)
