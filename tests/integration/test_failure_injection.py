"""Failure injection: message loss and node crashes.

A distributed consolidation protocol must degrade gracefully: lost
messages abort individual exchanges (never corrupt state), and crashed
PMs disappear from the overlay without wedging the survivors.
"""

from repro.core.glap import GlapConfig
from repro.experiments.runner import build_simulation, make_policy
from repro.experiments.scenarios import Scenario
from repro.traces.google import GoogleTraceParams

SCENARIO = Scenario(
    n_pms=20,
    ratio=3,
    rounds=40,
    warmup_rounds=40,
    repetitions=1,
    trace_params=GoogleTraceParams(rounds_per_day=40),
)
GLAP_CFG = GlapConfig(aggregation_rounds=10)


def run_with_network(loss: float, policy_name: str = "GLAP"):
    dc, sim, streams = build_simulation(SCENARIO, seed=5)
    sim.network.configure(loss_probability=loss, rng=streams.get("faults"))
    kwargs = {"config": GLAP_CFG} if policy_name == "GLAP" else {}
    policy = make_policy(policy_name, **kwargs)
    policy.attach(dc, sim, streams, SCENARIO.warmup_rounds)
    for _ in range(SCENARIO.warmup_rounds):
        dc.advance_round()
        sim.run_round()
        policy.step(dc, sim)
    policy.end_warmup(dc, sim)
    dc.reset_accounting()
    for _ in range(SCENARIO.rounds):
        dc.advance_round()
        sim.run_round()
        policy.step(dc, sim)
    return dc, sim, policy


class TestMessageLoss:
    def test_glap_survives_heavy_loss(self):
        dc, sim, _ = run_with_network(loss=0.4)
        # Every VM still placed exactly once.
        assert sorted(
            vm_id for members in dc.store.members for vm_id in members
        ) == list(range(dc.n_vms))
        assert sim.network.stats.messages_dropped > 0

    def test_loss_slows_but_does_not_stop_consolidation(self):
        dc_clean, _, _ = run_with_network(loss=0.0)
        dc_lossy, _, _ = run_with_network(loss=0.5)
        assert dc_lossy.active_count() < dc_lossy.n_pms  # still consolidates
        # Lossy runs cannot beat clean runs by much (sanity of direction).
        assert dc_lossy.active_count() >= dc_clean.active_count() - 2

    def test_total_loss_freezes_everything_safely(self):
        dc, sim, _ = run_with_network(loss=1.0)
        assert dc.migration_count() == 0
        assert dc.active_count() == dc.n_pms
        assert sorted(
            vm_id for members in dc.store.members for vm_id in members
        ) == list(range(dc.n_vms))


class TestNodeCrashes:
    def test_crashed_nodes_are_routed_around(self):
        dc, sim, streams = build_simulation(SCENARIO, seed=9)
        policy = make_policy("GLAP", config=GLAP_CFG)
        policy.attach(dc, sim, streams, SCENARIO.warmup_rounds)
        for _ in range(SCENARIO.warmup_rounds):
            dc.advance_round()
            sim.run_round()
        policy.end_warmup(dc, sim)

        # Crash a quarter of the nodes; their VMs become unreachable
        # (host failure semantics are out of the paper's scope — we only
        # require the overlay and the survivors to keep operating).
        crashed = [0, 1, 2, 3, 4]
        for nid in crashed:
            sim.node(nid).fail()

        for _ in range(SCENARIO.rounds):
            dc.advance_round()
            sim.run_round()

        survivors = [n for n in sim.nodes if n.is_up]
        assert survivors  # somebody is still alive
        # No migration ever targeted a crashed node after the crash.
        for record in dc.migrations:
            if record.round_index >= SCENARIO.warmup_rounds:
                assert record.dst_pm not in crashed

    def test_mass_sleep_does_not_wedge_survivors(self):
        dc, sim, _ = run_with_network(loss=0.0)
        # By now many PMs sleep (DataCenter.migrate itself raises if a
        # policy ever targets one); more rounds must run cleanly and keep
        # every VM placed.
        assert dc.active_count() < dc.n_pms
        for _ in range(10):
            dc.advance_round()
            sim.run_round()
        assert sorted(
            vm_id for members in dc.store.members for vm_id in members
        ) == list(range(dc.n_vms))
