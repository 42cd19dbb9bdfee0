"""Chaos runs replay bit-for-bit — across processes and across job counts.

Two guarantees, both load-bearing for the golden suite and for chaos
sweeps being comparable at all:

* the same root seed produces the identical faulted run in two *fresh*
  interpreter processes (no hidden dependence on hash randomisation,
  import order, or process-local state);
* a faulted sweep merged from N worker processes equals the same sweep
  run serially (PR 1's parity contract extended to chaos runs).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.parallel import run_sweep
from repro.experiments.scenarios import Scenario
from repro.faults import FaultPlan
from repro.traces.google import GoogleTraceParams

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Computes a digest of one faulted GRMP run and prints it as JSON.
#: Executed via ``python -c`` so each sample starts from a cold import.
DIGEST_SCRIPT = """
import hashlib, json
import numpy as np
from repro.experiments.runner import make_policy, run_policy
from repro.experiments.scenarios import Scenario
from repro.faults import FaultPlan
from repro.traces.google import GoogleTraceParams

scenario = Scenario(n_pms=12, ratio=2, rounds=12, warmup_rounds=12,
                    repetitions=1,
                    trace_params=GoogleTraceParams(rounds_per_day=12))
plan = FaultPlan.message_loss(0.3).merged(FaultPlan.churn(0.02, downtime_rounds=3))
result = run_policy(scenario.with_faults(plan), make_policy("GRMP"),
                    scenario.seed_of(0))
digest = {
    "slav": result.slav.hex(),
    "migrations": result.total_migrations,
    "dc_energy_j": result.dc_energy_j.hex(),
    "extras": {k: v.hex() for k, v in sorted(result.extras.items())},
    "series": {
        name: hashlib.sha256(
            np.ascontiguousarray(result.series[name]).tobytes()
        ).hexdigest()
        for name in sorted(result.series)
    },
}
print(json.dumps(digest, sort_keys=True))
"""


def spawn_digest():
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + existing if existing else "")
    out = subprocess.run(
        [sys.executable, "-c", DIGEST_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=300,
    )
    return json.loads(out.stdout)


@pytest.mark.slow
def test_same_seed_identical_across_fresh_processes():
    first = spawn_digest()
    second = spawn_digest()
    assert first == second
    assert first["extras"]["fault_crashes"] != (0.0).hex()  # chaos landed


@pytest.mark.slow
def test_faulted_sweep_parallel_matches_serial():
    scenario = Scenario(
        n_pms=12,
        ratio=2,
        rounds=10,
        warmup_rounds=10,
        repetitions=2,
        trace_params=GoogleTraceParams(rounds_per_day=10),
    ).with_faults(
        FaultPlan.message_loss(0.25).merged(FaultPlan.churn(0.01, downtime_rounds=3))
    )
    policies = ("GRMP", "PABFD")
    serial = run_sweep([scenario], policies=policies, jobs=1)
    parallel = run_sweep([scenario], policies=policies, jobs=4)
    for policy in policies:
        for a, b in zip(serial.of(scenario, policy), parallel.of(scenario, policy)):
            assert a.seed == b.seed
            assert a.slav == b.slav
            assert a.total_migrations == b.total_migrations
            assert a.dc_energy_j == b.dc_energy_j
            assert a.extras == b.extras
            for name in a.series:
                assert np.array_equal(a.series[name], b.series[name]), name
