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

Like Alg. 3, the exchange reads the store's derived-state planes
(DESIGN.md §5f) by PM and VM id (node id == PM id).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

from repro.baselines.base import ConsolidationPolicy, switch_off
from repro.datacenter.cluster import DataCenter
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
        p: int = node.node_id
        q: int = peer_id
        store = self.dc.store
        store.ensure_planes()

        if store.pm_overloaded(p):
            self._relieve(p, q, sim)
            return
        # Aggressive packing: lower-utilisation side empties into the other.
        if store.pm_total_utilization(p) <= store.pm_total_utilization(q):
            self._pack(p, q, sim)
        else:
            self._pack(q, p, sim)

    # -- internals -------------------------------------------------------------

    def _admitted(self, sender: int, receiver: int) -> Iterator[int]:
        """The sender's VMs, largest current CPU demand first (emptying big
        consumers first frees the sender fastest), each yielded iff the
        static rule admits it when it is reached: the receiver's projected
        current demand is at most T times its capacity in every resource.
        Reads the planes the exchange made current; a migration keeps
        them current for its two endpoints."""
        store = self.dc.store
        order = store.members_largest_first(sender)
        spec, t = store.pm_spec, self.config.upper_threshold
        cpu_limit, mem_limit = spec.cpu_mips * t, spec.mem_mb * t
        pm_cpu, pm_mem = store.pm_cur_cpu, store.pm_cur_mem
        vm_cpu, vm_mem = store.vm_cur_cpu, store.vm_cur_mem
        for v in order:
            if (
                pm_cpu[receiver] + vm_cpu[v] <= cpu_limit
                and pm_mem[receiver] + vm_mem[v] <= mem_limit
            ):
                yield v

    def _pack(self, sender: int, receiver: int, sim: "Simulation") -> None:
        store = self.dc.store
        if store.pm_asleep[receiver] or store.pm_asleep[sender]:
            return
        moved = 0
        # A VM the rule refuses is skipped: aggressive = fill every gap.
        for v in self._admitted(sender, receiver):
            if moved >= self.config.max_migrations_per_exchange:
                break
            self.dc.migrate(v, receiver)
            moved += 1
        if not store.members[sender] and not store.pm_asleep[sender]:
            switch_off(self.dc, sim, sender)
            self.switch_offs += 1

    def _relieve(self, sender: int, receiver: int, sim: "Simulation") -> None:
        store = self.dc.store
        if store.pm_asleep[receiver]:
            return
        moved = 0
        while (
            store.pm_overloaded(sender)
            and store.members[sender]
            and moved < self.config.max_migrations_per_exchange
        ):
            v = next(self._admitted(sender, receiver), None)
            if v is None:
                break
            self.dc.migrate(v, receiver)
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
