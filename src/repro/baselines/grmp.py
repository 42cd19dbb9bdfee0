"""GRMP baseline — aggressive gossip packing with a static threshold.

The paper evaluates GRMP (Wuhib, Yanggratoke & Stadler's gossip resource
management protocol) as "an aggressive gossip based protocol with a
static upper threshold 0.8".  Per round each PM gossips with one random
neighbour; the pair then rebalances *aggressively*: the less-utilised PM
pushes its VMs onto the other for as long as the receiver's projected
utilisation stays at or below the threshold in every resource, switching
itself off when it empties.  Overload relief follows the same rule: an
overloaded PM pushes VMs out until it drops below the threshold.

The pathology the paper highlights (Figure 1) is visible by design:
admission is judged on *current* demand against a static bound, so a
receiver filled to 0.79 overloads as soon as its tenants' demand rises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.baselines.base import ConsolidationPolicy, switch_off
from repro.datacenter.cluster import DataCenter
from repro.datacenter.pm import PhysicalMachine
from repro.datacenter.vm import VirtualMachine
from repro.overlay.cyclon import CyclonProtocol
from repro.overlay.sampler import PeerSampler
from repro.simulator.protocol import Protocol
from repro.util.validation import check_fraction

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulator.engine import Simulation
    from repro.simulator.node import Node
    from repro.util.rng import RngStreams

__all__ = ["GrmpConfig", "GrmpProtocol", "GrmpPolicy"]


@dataclass(frozen=True)
class GrmpConfig:
    """Static-threshold gossip packing knobs (paper: threshold = 0.8)."""

    upper_threshold: float = 0.8
    view_size: int = 20
    shuffle_len: int = 8
    max_migrations_per_exchange: int = 64

    def __post_init__(self) -> None:
        check_fraction(self.upper_threshold, "upper_threshold")
        if self.upper_threshold == 0.0:
            raise ValueError("upper_threshold must be > 0")


class GrmpProtocol(Protocol):
    """The per-round gossip exchange."""

    def __init__(self, dc: DataCenter, sampler: PeerSampler, config: GrmpConfig) -> None:
        self.dc = dc
        self.sampler = sampler
        self.config = config
        self.enabled = False  # consolidation starts after warmup
        self.switch_offs = 0

    def execute_round(self, node: "Node", sim: "Simulation") -> None:
        if not self.enabled:
            return
        peer_id = self.sampler.select_peer(node, sim)
        if peer_id is None:
            return
        if not sim.network.exchange_ok(node.node_id, peer_id, "grmp/state", size_bytes=32):
            return
        p: PhysicalMachine = node.payload
        q: PhysicalMachine = sim.node(peer_id).payload

        if p.is_overloaded():
            self._relieve(p, q, sim)
            return
        # Aggressive packing: lower-utilisation side empties into the other.
        sender, receiver = (p, q) if p.total_utilization() <= q.total_utilization() else (q, p)
        self._pack(sender, receiver, sim)

    # -- internals -------------------------------------------------------------

    def _admits(self, receiver: PhysicalMachine, vm: VirtualMachine) -> bool:
        """Static rule: receiver's projected current utilisation <= T."""
        cpu, mem = receiver.store.pm_demand_with(receiver.pm_id, vm.vm_id)
        t = self.config.upper_threshold
        return cpu <= receiver.spec.cpu_mips * t and mem <= receiver.spec.mem_mb * t

    def _largest_first(self, pm: PhysicalMachine) -> list:
        """Sender's eviction order: largest current CPU demand first —
        emptying big consumers first frees the sender fastest."""
        store = pm.store
        return [store.vms[v] for v in store.members_largest_first(pm.pm_id)]

    def _pack(self, sender: PhysicalMachine, receiver: PhysicalMachine, sim: "Simulation") -> None:
        if receiver.asleep or sender.asleep:
            return
        moved = 0
        for vm in self._largest_first(sender):
            if moved >= self.config.max_migrations_per_exchange:
                break
            if not self._admits(receiver, vm):
                continue  # try a smaller VM; aggressive = fill every gap
            self.dc.migrate(vm.vm_id, receiver.pm_id)
            moved += 1
        if sender.is_empty and not sender.asleep:
            switch_off(self.dc, sim, sender.pm_id)
            self.switch_offs += 1

    def _relieve(self, sender: PhysicalMachine, receiver: PhysicalMachine, sim: "Simulation") -> None:
        if receiver.asleep:
            return
        moved = 0
        while (
            sender.is_overloaded()
            and not sender.is_empty
            and moved < self.config.max_migrations_per_exchange
        ):
            candidates = [vm for vm in self._largest_first(sender) if self._admits(receiver, vm)]
            if not candidates:
                break
            self.dc.migrate(candidates[0].vm_id, receiver.pm_id)
            moved += 1


class GrmpPolicy(ConsolidationPolicy):
    """GRMP wired onto a simulation (Cyclon + the exchange protocol)."""

    name = "GRMP"

    def __init__(self, config: Optional[GrmpConfig] = None) -> None:
        self.config = config if config is not None else GrmpConfig()
        self.protocol: Optional[GrmpProtocol] = None
        self.cyclon: Optional[CyclonProtocol] = None

    def attach(self, dc: DataCenter, sim: "Simulation", streams: "RngStreams",
               warmup_rounds: int) -> None:
        node_ids = [n.node_id for n in sim.nodes]
        self.cyclon = CyclonProtocol(
            view_size=min(self.config.view_size, len(node_ids) - 1),
            shuffle_len=min(self.config.shuffle_len, self.config.view_size, len(node_ids) - 1),
            rng=streams.get("grmp/cyclon"),
        )
        self.cyclon.bootstrap_random(node_ids)
        self.protocol = GrmpProtocol(dc, self.cyclon, self.config)
        for node in sim.nodes:
            node.register("cyclon", self.cyclon)
            node.register("grmp", self.protocol)
        if sim.telemetry.enabled:
            sim.telemetry.register_counters(
                "grmp",
                lambda: {"switch_offs": float(self.protocol.switch_offs)},
            )

    def end_warmup(self, dc: DataCenter, sim: "Simulation") -> None:
        assert self.protocol is not None, "attach() must run first"
        self.protocol.enabled = True

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        assert self.protocol is not None and self.cyclon is not None
        return {
            "cyclon": self.cyclon.state_dict(),
            "enabled": self.protocol.enabled,
            "switch_offs": self.protocol.switch_offs,
        }

    def load_state_dict(self, state: dict) -> None:
        assert self.protocol is not None and self.cyclon is not None
        self.cyclon.load_state_dict(state["cyclon"])
        self.protocol.enabled = bool(state["enabled"])
        self.protocol.switch_offs = int(state["switch_offs"])
