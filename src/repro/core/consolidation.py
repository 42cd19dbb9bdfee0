"""Gossip Workload Consolidation (paper Algorithm 3 + Figure 4).

Every round each live PM pushes its state to one random neighbour and
pulls that neighbour's state (push-pull).  Then:

* if the initiator is overloaded (any resource at/over capacity) it
  evicts VMs to the peer *as long as it is overloaded*;
* otherwise the PM with the lower total current utilisation becomes the
  sender and evicts VMs *as long as* doing so can empty it (sleep mode).

Each eviction step:

1. the sender computes its state ``s_p`` (from **average** demands) and
   looks up ``pi_out``: the available action (VM level) with the highest
   ``Q_out(s_p, a)``; among same-action VMs the one with the least
   migration cost is picked;
2. the *sender* evaluates ``Q_in(s_q, a)`` on the peer's behalf — PMs
   own identical Q-values after aggregation, so no extra round-trip is
   needed (the paper calls this out as a key communication saving);
   a negative value means the peer would likely end up overloaded now or
   later: the round finishes;
3. a plain capacity check on the peer's *current* demand must pass;
4. the VM migrates; both sides' states are refreshed and the loop
   repeats.

A sender that empties itself switches off (PM -> asleep, node -> sleep),
shrinking the active data centre.

Every step reads the store's derived-state planes (DESIGN.md §5f)
directly, by PM and VM id (node id == PM id): ``pm_cur_*`` for
overload, sender choice and capacity,
``pm_avg_*`` for the two states, ``vm_action`` / ``vm_cur_*`` for the
eviction candidates.  The planes are made current once, when the
exchange starts; a migration keeps them current for its two endpoints.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.baselines.base import switch_off
from repro.core.qlearning import QLearningModel
from repro.core.states import state_code_fast
from repro.datacenter.cluster import DataCenter
from repro.datacenter.columnar import ColumnarStore
from repro.overlay.sampler import PeerSampler
from repro.simulator.protocol import Protocol

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulator.engine import Simulation
    from repro.simulator.node import Node

__all__ = ["GlapConsolidationProtocol"]

_STATE_BYTES = 32  # two utilisation vectors + flags


# -- one PM's state on the planes -----------------------------------------------


def _state(store: ColumnarStore, pm: int) -> int:
    """The PM's state before an action (section IV-B): the level code of
    its *average* demand as capacity fractions, uncapped, so demand
    beyond capacity lands in Overload."""
    spec = store.pm_spec
    return state_code_fast(store.pm_avg_cpu[pm] / spec.cpu_mips, store.pm_avg_mem[pm] / spec.mem_mb)


class GlapConsolidationProtocol(Protocol):
    """Algorithm 3 as a round protocol.

    Parameters
    ----------
    dc:
        The data centre (the migration chokepoint).
    models:
        Per-node Q-learning models (identical after aggregation).
    sampler:
        Overlay peer sampler.
    max_migrations_per_exchange:
        Circuit breaker on the MIGRATE loop; generous by default (a
        sender rarely hosts more VMs than this).
    use_q_in_guard:
        Ablation switch — False disables the threshold-free admission
        test and accepts on capacity alone.
    """

    def __init__(
        self,
        dc: DataCenter,
        models: Dict[int, QLearningModel],
        sampler: PeerSampler,
        max_migrations_per_exchange: int = 64,
        use_q_in_guard: bool = True,
    ) -> None:
        if max_migrations_per_exchange <= 0:
            raise ValueError(
                f"max_migrations_per_exchange must be > 0, got {max_migrations_per_exchange}"
            )
        self.dc = dc
        self.models = models
        self.sampler = sampler
        self.max_migrations_per_exchange = max_migrations_per_exchange
        self.use_q_in_guard = use_q_in_guard
        # Diagnostics.
        self.exchanges = 0
        self.rejections_by_q_in = 0
        self.rejections_by_capacity = 0
        self.switch_offs = 0
        # Unlike dc.migrations this survives dc.reset_accounting(), so
        # telemetry deltas over it never go negative at the warmup/eval
        # boundary.
        self.migrations_done = 0

    # -- the active thread ---------------------------------------------------

    def execute_round(self, node: "Node", sim: "Simulation") -> None:
        peer_id = self.sampler.select_peer(node, sim)
        if peer_id is None:
            return
        if not sim.network.exchange_ok(
            node.node_id, peer_id, "glap/state", size_bytes=_STATE_BYTES
        ):
            return
        self.exchanges += 1
        p: int = node.node_id
        q: int = peer_id
        store = self.dc.store
        store.ensure_planes()

        # UPDATESTATE (Alg. 3 lines 11-17).
        if store.pm_overloaded(p):
            self._migrate_while(sim, sender=p, receiver=q, until="not_overloaded")
        else:
            # The less-utilised side is the sender (argmin of total
            # current utilisation); on a tie the initiator sends, which
            # keeps the rule deterministic.
            if store.pm_total_utilization(p) <= store.pm_total_utilization(q):
                sender, receiver = p, q
            else:
                sender, receiver = q, p
            self._migrate_while(sim, sender=sender, receiver=receiver, until="empty")

    # -- the MIGRATE loop (Alg. 3 lines 18-24) -----------------------------------

    def _migrate_while(
        self,
        sim: "Simulation",
        sender: int,
        receiver: int,
        until: str,
    ) -> int:
        """Repeat single-VM migrations from PM ``sender`` to PM
        ``receiver`` until the goal or a blocker.

        ``until``: ``"not_overloaded"`` (overload relief) or ``"empty"``
        (consolidate towards switch-off).  Returns migrations performed.
        """
        if until not in ("not_overloaded", "empty"):
            raise ValueError(f"unknown goal {until!r}")
        store = self.dc.store
        if store.pm_asleep[receiver]:
            return 0
        relieve = until == "not_overloaded"
        done = 0
        while done < self.max_migrations_per_exchange:
            if relieve and not store.pm_overloaded(sender):
                break
            if not store.members[sender]:
                break
            if not self._migrate_one(sim, sender, receiver):
                break
            done += 1

        if not store.members[sender] and not store.pm_asleep[sender]:
            switch_off(self.dc, sim, sender)
            self.switch_offs += 1
        return done

    def _migrate_one(self, sim: "Simulation", sender: int, receiver: int) -> bool:
        """One step of MIGRATE(); False means the round is finished."""
        model = self.models[sender]
        chosen = self._find_vm(model, sender)
        if chosen is None:
            return False  # vm = ⊥
        action, vm = chosen
        store = self.dc.store
        tracer = sim.tracer

        # The sender decides on the receiver's behalf using the shared
        # phi_in and the receiver's gossiped state.
        if self.use_q_in_guard and not model.pi_in(_state(store, receiver), action):
            self.rejections_by_q_in += 1
            if tracer.enabled:
                tracer.emit(
                    "eviction", sim.round_index, sender,
                    peer=receiver, vm=vm, outcome="q_in_reject",
                )
            return False
        # ``ColumnarStore.pm_fits``: the receiver's current demand plus
        # the VM's, against capacity.
        spec = store.pm_spec
        if not (
            store.pm_cur_cpu[receiver] + store.vm_cur_cpu[vm] <= spec.cpu_mips
            and store.pm_cur_mem[receiver] + store.vm_cur_mem[vm] <= spec.mem_mb
        ):
            self.rejections_by_capacity += 1
            if tracer.enabled:
                tracer.emit(
                    "eviction", sim.round_index, sender,
                    peer=receiver, vm=vm, outcome="capacity_reject",
                )
            return False

        if tracer.enabled:
            tracer.emit(
                "eviction", sim.round_index, sender,
                peer=receiver, vm=vm, outcome="migrated",
            )
        self.dc.migrate(vm, receiver)
        self.migrations_done += 1
        return True

    def _find_vm(self, model: QLearningModel, pm: int) -> Optional[Tuple[int, int]]:
        """``findVM(s_p)``: ``(action, vm_id)`` — best action by Q_out, then
        the cheapest VM of it; None for an empty PM.  Reads the planes as
        they are: the caller has made them current.

        The PM's distinct VM actions are offered to ``pi_out`` in
        first-seen membership order, and the winner's VM is the minimum
        of ``(current memory demand, vm_id)`` — least migration cost ~
        least memory footprint (migration time is driven by memory
        size), ties to the lowest id for determinism.
        """
        store = self.dc.store
        members = store.members[pm]
        if not members:
            return None
        codes = store.vm_action
        action = model.pi_out(_state(store, pm), list(dict.fromkeys([codes[v] for v in members])))
        if action is None:
            return None
        mem = store.vm_cur_mem
        best, best_mem = -1, 0.0
        for v in members:
            if codes[v] == action:
                m = mem[v]
                if best < 0 or m < best_mem or (m == best_mem and v < best):
                    best, best_mem = v, m
        return action, best

