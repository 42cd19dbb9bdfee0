#!/usr/bin/env python
"""Extending the framework: write and evaluate your own policy.

Implements "FirstFitGossip" — a deliberately naive distributed policy
(each round, the less-loaded side of a random gossip pair dumps VMs into
the other until raw capacity runs out; no threshold, no learning) — and
runs it through the same harness as the built-in policies, so its SLA
cost is directly comparable.

The point: the :class:`~repro.baselines.base.ConsolidationPolicy`
interface plus the :class:`~repro.simulator.protocol.Protocol` hook is
all a new strategy needs.

Run:  python examples/custom_policy.py
"""

from repro import POLICY_NAMES, Scenario, make_policy, run_policy
from repro.baselines.base import ConsolidationPolicy, switch_off
from repro.overlay.cyclon import CyclonProtocol
from repro.simulator.protocol import Protocol
from repro.traces.google import GoogleTraceParams


class FirstFitGossipProtocol(Protocol):
    """Gossip packing with no safety margin whatsoever.

    Reads the data centre's store by PM and VM id (node id == PM id):
    ``pm_total_utilization`` picks the sender, ``pm_fits`` is the only
    admission check, and ``switch_off`` sleeps an emptied sender.
    """

    def __init__(self, dc, sampler):
        self.dc = dc
        self.sampler = sampler
        self.enabled = False

    def execute_round(self, node, sim):
        if not self.enabled:
            return
        peer_id = self.sampler.select_peer(node, sim)
        if peer_id is None:
            return
        store = self.dc.store
        store.ensure_planes()  # current per-PM / per-VM demand, by id
        p, q = node.node_id, peer_id
        sender, receiver = (
            (p, q) if store.pm_total_utilization(p) <= store.pm_total_utilization(q) else (q, p)
        )
        if store.pm_asleep[receiver] or store.pm_asleep[sender]:
            return
        for vm_id in list(store.members[sender]):
            if store.pm_fits(receiver, vm_id):  # raw capacity is the only check
                self.dc.migrate(vm_id, receiver)
        if not store.members[sender]:
            switch_off(self.dc, sim, sender)


class FirstFitGossipPolicy(ConsolidationPolicy):
    name = "FirstFit"

    def attach(self, dc, sim, streams, warmup_rounds):
        node_ids = [n.node_id for n in sim.nodes]
        cyclon = CyclonProtocol(
            view_size=min(20, len(node_ids) - 1),
            shuffle_len=min(8, len(node_ids) - 1),
            rng=streams.get("firstfit/cyclon"),
        )
        cyclon.bootstrap_random(node_ids)
        self.protocol = FirstFitGossipProtocol(dc, cyclon)
        for node in sim.nodes:
            node.register("cyclon", cyclon)
            node.register("firstfit", self.protocol)

    def end_warmup(self, dc, sim):
        self.protocol.enabled = True


def main() -> None:
    scenario = Scenario(
        n_pms=40,
        ratio=3,
        rounds=150,
        warmup_rounds=150,
        trace_params=GoogleTraceParams(rounds_per_day=150),
    )
    policies = [FirstFitGossipPolicy()] + [make_policy(n) for n in POLICY_NAMES]
    print(f"{'policy':9s} {'SLAV':>9s} {'active':>7s} {'overl%':>7s} {'migs':>6s}")
    for policy in policies:
        result = run_policy(scenario, policy, seed=scenario.seed_of(0))
        print(
            f"{policy.name:9s} {result.slav:9.2e} "
            f"{result.mean_of('active'):7.1f} "
            f"{100 * result.mean_of('overloaded_fraction'):6.1f}% "
            f"{result.total_migrations:6d}"
        )
    print(
        "\nFirstFit packs hardest and pays for it in overload — the gap to\n"
        "GLAP on the same workload is precisely what the learned Q_in\n"
        "admission test buys."
    )


if __name__ == "__main__":
    main()
