"""The extension example runs: ``examples/custom_policy.py``'s
FirstFitGossip, a policy written outside the package, goes through
``run_policy`` like the built-in four and consolidates."""

import importlib.util
from pathlib import Path

from repro.experiments.runner import run_policy
from repro.experiments.scenarios import Scenario
from repro.simulator.observer import check_datacenter_invariants
from repro.traces.google import GoogleTraceParams

EXAMPLE = Path(__file__).resolve().parents[1] / "examples" / "custom_policy.py"


def load_example():
    spec = importlib.util.spec_from_file_location("custom_policy_example", EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_first_fit_gossip_runs_and_migrates():
    scenario = Scenario(
        n_pms=16, ratio=3, rounds=10, warmup_rounds=4, repetitions=1,
        trace_params=GoogleTraceParams(rounds_per_day=14),
    )
    seen = []
    result = run_policy(
        scenario, load_example().FirstFitGossipPolicy(), scenario.seed_of(0),
        round_hook=lambda r, dc, sim: seen.append((dc, sim)),
    )
    assert result.policy == "FirstFit"
    assert result.total_migrations > 0
    assert result.final_active < scenario.n_pms
    check_datacenter_invariants(*seen[-1])
