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
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.core.qlearning import QLearningModel
from repro.core.states import pm_state
from repro.datacenter.cluster import DataCenter
from repro.datacenter.pm import PhysicalMachine
from repro.datacenter.vm import VirtualMachine
from repro.overlay.sampler import PeerSampler
from repro.simulator.protocol import Protocol

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulator.engine import Simulation
    from repro.simulator.node import Node

__all__ = ["GlapConsolidationProtocol"]

_STATE_BYTES = 32  # two utilisation vectors + flags


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
        p: PhysicalMachine = node.payload
        q: PhysicalMachine = sim.node(peer_id).payload

        # UPDATESTATE (Alg. 3 lines 11-17).
        if p.is_overloaded():
            self._migrate_while(sim, sender=p, receiver=q, until="not_overloaded")
        else:
            # The less-utilised side is the sender (argmin of total
            # current utilisation); on a tie the initiator sends, which
            # keeps the rule deterministic.
            if p.total_utilization() <= q.total_utilization():
                sender, receiver = p, q
            else:
                sender, receiver = q, p
            self._migrate_while(sim, sender=sender, receiver=receiver, until="empty")

    # -- the MIGRATE loop (Alg. 3 lines 18-24) -----------------------------------

    def _migrate_while(
        self,
        sim: "Simulation",
        sender: PhysicalMachine,
        receiver: PhysicalMachine,
        until: str,
    ) -> int:
        """Repeat single-VM migrations until the goal or a blocker.

        ``until``: ``"not_overloaded"`` (overload relief) or ``"empty"``
        (consolidate towards switch-off).  Returns migrations performed.
        """
        if until not in ("not_overloaded", "empty"):
            raise ValueError(f"unknown goal {until!r}")
        if receiver.asleep:
            return 0
        done = 0
        while done < self.max_migrations_per_exchange:
            if until == "not_overloaded" and not sender.is_overloaded():
                break
            if sender.is_empty:
                break
            if not self._migrate_one(sim, sender, receiver):
                break
            done += 1

        if sender.is_empty and not sender.asleep:
            self._switch_off(sender, sim)
        return done

    def _migrate_one(
        self, sim: "Simulation", sender: PhysicalMachine, receiver: PhysicalMachine
    ) -> bool:
        """One step of MIGRATE(); False means the round is finished."""
        model = self.models[sender.pm_id]
        chosen = self._find_vm(model, sender)
        if chosen is None:
            return False  # vm = ⊥
        action, vm = chosen
        tracer = sim.tracer

        # The sender decides on the receiver's behalf using the shared
        # phi_in and the receiver's gossiped state.
        if self.use_q_in_guard:
            s_q = pm_state(receiver, use_average=True)
            if not model.pi_in(s_q, action):
                self.rejections_by_q_in += 1
                if tracer.enabled:
                    tracer.emit(
                        "eviction", sim.round_index, sender.pm_id,
                        peer=receiver.pm_id, vm=vm.vm_id, outcome="q_in_reject",
                    )
                return False
        if not receiver.fits(vm):
            self.rejections_by_capacity += 1
            if tracer.enabled:
                tracer.emit(
                    "eviction", sim.round_index, sender.pm_id,
                    peer=receiver.pm_id, vm=vm.vm_id, outcome="capacity_reject",
                )
            return False

        if tracer.enabled:
            tracer.emit(
                "eviction", sim.round_index, sender.pm_id,
                peer=receiver.pm_id, vm=vm.vm_id, outcome="migrated",
            )
        self.dc.migrate(vm.vm_id, receiver.pm_id)
        self.migrations_done += 1
        return True

    def _find_vm(
        self, model: QLearningModel, sender: PhysicalMachine
    ) -> Optional[Tuple[int, VirtualMachine]]:
        """``findVM(s_p)``: best action by Q_out, then cheapest VM of it.

        Read off the store's per-VM planes (no per-VM objects, no
        arrays): the sender's distinct VM actions are offered to
        ``pi_out`` in first-seen membership order, and the winner's VM is
        the minimum of ``(current memory demand, vm_id)`` — least
        migration cost ~ least memory footprint (migration time is driven
        by memory size), ties to the lowest id for determinism.
        """
        store = sender.store
        codes = store.member_actions(sender.pm_id)
        if not codes:
            return None
        s_p = pm_state(sender, use_average=True)
        action = model.pi_out(s_p, list(dict.fromkeys(codes)))
        if action is None:
            return None
        return action, store.vms[store.cheapest_member(sender.pm_id, action)]

    def _switch_off(self, pm: PhysicalMachine, sim: "Simulation") -> None:
        pm.asleep = True
        node = sim.node(pm.pm_id)
        if node.is_up:
            node.sleep()
        self.switch_offs += 1
        if sim.tracer.enabled:
            sim.tracer.emit("pm_sleep", sim.round_index, pm.pm_id)
