"""The ledger's scale cell (``scale_trace_20k``: 20 000 PMs x 4, 20
rounds) at the end of its run, where the Figure 6 baseline packs its
80 000 VMs; smaller ``n_pms`` give the same cell in miniature."""

from repro.datacenter.cluster import DataCenter
from repro.experiments.runner import build_simulation, build_trace
from repro.experiments.scenarios import Scenario
from repro.traces.google import GoogleTraceParams


def end_of_run(n_pms: int, seed: int) -> DataCenter:
    scenario = Scenario(
        n_pms=n_pms, ratio=4, rounds=16, warmup_rounds=4, repetitions=1,
        trace_params=GoogleTraceParams(rounds_per_day=12),
    )
    dc, _, _ = build_simulation(scenario, seed, trace=build_trace(scenario, seed))
    for _ in range(scenario.total_rounds):
        dc.advance_round()
    return dc
