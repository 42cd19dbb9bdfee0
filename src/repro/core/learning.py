"""Gossip Learning, phase 1: local training (paper Algorithm 1).

A lightly-loaded PM (utilisation below a threshold, so training does not
hurt collocated tenants) gathers VM *profiles* — current and average
demand snapshots — from itself plus one neighbour, duplicates them if
needed to cover heavily-loaded states, and then simulates consolidation
``k`` times per round: split the profiles into a pretend sender and a
pretend target, move one random VM across, and apply the Q-learning
update to both the *out* map (sender's perspective) and the *in* map
(recipient's perspective).

State convention (Figure 3 of the paper): the state *before* the action
and the action itself are computed from **average** demands; the state
*after* the action from **current** demands — that is how Q-values come
to encode the gap between a VM's typical and instantaneous load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as np

from repro.core.qlearning import QLearningModel
from repro.core.states import state_code_fast, state_of_utilization
from repro.datacenter.pm import PhysicalMachine
from repro.datacenter.resources import N_RESOURCES
from repro.overlay.sampler import PeerSampler
from repro.simulator.protocol import Protocol
from repro.util.validation import check_fraction, check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulator.engine import Simulation
    from repro.simulator.node import Node

__all__ = ["VmProfile", "LocalTrainer", "GossipLearningProtocol"]

# Estimated bytes per profile on the wire (2 demand vectors + count).
_PROFILE_BYTES = 40


@dataclass(frozen=True)
class VmProfile:
    """A transferable snapshot of one VM's demand behaviour.

    ``current_abs`` / ``average_abs`` are absolute demands ([MIPS, MB]);
    ``spec_capacity`` is the VM's nominal capacity vector, needed to
    compute the action level on the VM's own scale.
    """

    current_abs: np.ndarray
    average_abs: np.ndarray
    spec_capacity: np.ndarray

    @classmethod
    def of_vm(cls, vm) -> "VmProfile":
        return cls(
            current_abs=vm.current_demand_abs(),
            average_abs=vm.average_demand_abs(),
            spec_capacity=vm.spec.capacity_vector(),
        )

    def action_code(self) -> int:
        """The action (VM load level) from *average* demand on the VM scale."""
        frac = self.average_abs / self.spec_capacity
        return state_code_fast(max(float(frac[0]), 0.0), max(float(frac[1]), 0.0))


def _group_state(
    profiles: Sequence[VmProfile],
    pm_capacity: np.ndarray,
    *,
    use_average: bool,
) -> int:
    """State of a (simulated) PM hosting ``profiles``."""
    total = np.zeros(N_RESOURCES, dtype=np.float64)
    for p in profiles:
        total += p.average_abs if use_average else p.current_abs
    return state_of_utilization(total / pm_capacity)


class LocalTrainer:
    """Runs Algorithm 1's inner loop over a pool of VM profiles."""

    def __init__(
        self,
        model: QLearningModel,
        pm_capacity: np.ndarray,
        rng: np.random.Generator,
        iterations_per_round: int = 20,
        coverage_target: float = 2.0,
        max_profiles: int = 256,
        track_td: bool = False,
    ) -> None:
        """
        Parameters
        ----------
        model:
            The PM's Q-learning model, updated in place.
        pm_capacity:
            Capacity vector of the simulated PMs ([MIPS, MB]).
        iterations_per_round:
            The paper's ``k``.
        coverage_target:
            Duplicate profiles until aggregate average demand reaches
            this multiple of PM capacity — "to cover highly loaded
            states" the training pool must be able to overload a PM.
        max_profiles:
            Safety cap on pool growth from duplication.
        track_td:
            Accumulate the absolute TD error of every Q update into
            ``td_abs_sum``/``td_updates`` (telemetry).  The extra work is
            two dict reads per iteration and perturbs nothing.
        """
        self.model = model
        self.pm_capacity = np.asarray(pm_capacity, dtype=np.float64)
        if self.pm_capacity.shape != (N_RESOURCES,):
            raise ValueError(
                f"pm_capacity must have shape ({N_RESOURCES},), got {self.pm_capacity.shape}"
            )
        self._rng = rng
        self.iterations_per_round = int(check_positive(iterations_per_round, "iterations_per_round"))
        self.coverage_target = check_positive(coverage_target, "coverage_target")
        self.max_profiles = int(check_positive(max_profiles, "max_profiles"))
        self.track_td = bool(track_td)
        self.td_abs_sum = 0.0
        self.td_updates = 0

    # -- pool preparation ---------------------------------------------------

    def prepare_pool(self, profiles: Sequence[VmProfile]) -> List[VmProfile]:
        """Duplicate profiles until heavy states are reachable.

        Returns a new list; the originals are shared (profiles are
        immutable).
        """
        pool = list(profiles)
        if not pool:
            return pool
        # Scalar accumulators: the duplication loop runs up to
        # max_profiles times per training round, so per-step ndarray
        # comparisons would dominate it.
        total_cpu = float(sum(p.average_abs[0] for p in pool))
        total_mem = float(sum(p.average_abs[1] for p in pool))
        target = self.coverage_target * self.pm_capacity
        target_cpu, target_mem = float(target[0]), float(target[1])
        i = 0
        while (total_cpu < target_cpu or total_mem < target_mem) and len(
            pool
        ) < self.max_profiles:
            dup = pool[i % len(profiles)]
            pool.append(dup)
            total_cpu += float(dup.average_abs[0])
            total_mem += float(dup.average_abs[1])
            i += 1
        return pool

    # -- one training round ------------------------------------------------------

    def train_round(self, profiles: Sequence[VmProfile]) -> int:
        """Run ``k`` simulated migrations; returns updates performed.

        The inner loop is vectorised: the pool is converted to dense
        demand matrices once, and each iteration carves sender/target
        groups out of one permutation via cumulative sums — no per-VM
        Python objects are touched inside the ``k`` loop.
        """
        pool = self.prepare_pool(profiles)
        n = len(pool)
        if n < 2:
            return 0
        # The pool repeats the base profiles (duplication shares objects),
        # so densify the few distinct profiles once and gather pool rows.
        base_index = {id(p): i for i, p in enumerate(profiles)}
        pool_idx = np.fromiter(
            (base_index[id(p)] for p in pool), dtype=np.intp, count=n
        )
        base_avg = np.vstack([p.average_abs for p in profiles]) / self.pm_capacity
        base_cur = np.vstack([p.current_abs for p in profiles]) / self.pm_capacity
        base_actions = np.array(
            [p.action_code() for p in profiles], dtype=np.int64
        )
        actions = base_actions[pool_idx]

        alpha = self.model.config.alpha
        gamma = self.model.config.gamma
        reward_out = self.model.config.reward_out
        reward_in = self.model.config.reward_in

        # Per-resource 1D columns: every group statistic the loop needs
        # is a prefix sum over the permuted pool, so four cumulative sums
        # per iteration replace all 2D gathers and axis reductions.
        avg0 = np.ascontiguousarray(base_avg[pool_idx, 0])
        avg1 = np.ascontiguousarray(base_avg[pool_idx, 1])
        cur0 = np.ascontiguousarray(base_cur[pool_idx, 0])
        cur1 = np.ascontiguousarray(base_cur[pool_idx, 1])

        sends: List[Tuple[int, int, float, int]] = []
        accepts: List[Tuple[int, int, float, int]] = []
        for _ in range(self.iterations_per_round):
            # vmss ⊂ vms, vmst ⊂ vms: disjoint random subsets per
            # iteration.  Subset sizes are drawn so the simulated PMs
            # span the whole load range a real exchange can encounter —
            # senders from "almost empty" to "overloaded" (their relief
            # path needs coverage), targets likewise.  Without load-aimed
            # sampling, a duplicated pool makes most simulated targets
            # overloaded from the start and Q_in learns to reject
            # everything.
            perm = self._rng.permutation(n)
            ca0 = avg0[perm].cumsum()
            ca1 = avg1[perm].cumsum()
            cums = np.maximum(ca0, ca1)
            k_s = int(np.searchsorted(cums, self._rng.uniform(0.15, 1.3))) + 1
            k_s = min(k_s, n - 1)  # leave at least one profile for the target
            base0, base1 = ca0[k_s - 1], ca1[k_s - 1]
            cumt = np.maximum(ca0[k_s:] - base0, ca1[k_s:] - base1)
            k_t = int(np.searchsorted(cumt, self._rng.uniform(0.1, 1.2))) + 1
            k_t = min(k_t, n - k_s)  # all remaining profiles at most

            pick = perm[int(self._rng.integers(k_s))]
            action = int(actions[pick])

            cc0 = cur0[perm].cumsum()
            cc1 = cur1[perm].cumsum()

            # Sender update: state before from averages (with vm), state
            # after from currents (without vm).  float() casts: chained
            # comparisons in the encoder are faster on Python floats than
            # on NumPy scalars.
            s_before = state_code_fast(float(base0), float(base1))
            s_after = state_code_fast(
                max(float(cc0[k_s - 1] - cur0[pick]), 0.0),
                max(float(cc1[k_s - 1] - cur1[pick]), 0.0),
            )
            sends.append((s_before, action, reward_out.of_state(s_after), s_after))

            # Recipient update: state before from averages (without vm),
            # state after from currents (with vm).
            last = k_s + k_t - 1
            t_before = state_code_fast(
                float(ca0[last] - base0), float(ca1[last] - base1)
            )
            t_after = state_code_fast(
                float(cc0[last] - cc0[k_s - 1] + cur0[pick]),
                float(cc1[last] - cc1[k_s - 1] + cur1[pick]),
            )
            accepts.append((t_before, action, reward_in.of_state(t_after), t_after))

        # The simulated migrations never read the Q-maps, so the round's
        # updates are applied after the loop, each map's in order, as
        # one batch per map (see QTable.update_many).
        sent = self.model.q_out.update_many(sends, alpha, gamma)
        accepted = self.model.q_in.update_many(accepts, alpha, gamma)
        if self.track_td:
            for (old_out, new_out), (old_in, new_in) in zip(sent, accepted):
                self.td_abs_sum += abs(new_out - old_out) + abs(new_in - old_in)
            self.td_updates += 2 * len(sent)
        return len(sent)


class GossipLearningProtocol(Protocol):
    """Algorithm 1 as a round protocol: the *learning phase*.

    Per round, a PM whose utilisation is at most ``utilization_threshold``
    pulls the VM profiles of one random neighbour, merges them with its
    own and trains its local model.  Models are per node (``models``
    keyed by node id); they diverge across PMs until the aggregation
    phase unifies them.
    """

    def __init__(
        self,
        models: dict,
        sampler: PeerSampler,
        rng: np.random.Generator,
        utilization_threshold: float = 0.5,
        iterations_per_round: int = 20,
        coverage_target: float = 2.0,
        learning_period: int = 1,
    ) -> None:
        self.models = models
        self.sampler = sampler
        self._rng = rng
        self.utilization_threshold = check_fraction(
            utilization_threshold, "utilization_threshold"
        )
        self.iterations_per_round = int(
            check_positive(iterations_per_round, "iterations_per_round")
        )
        self.coverage_target = check_positive(coverage_target, "coverage_target")
        # The paper leaves the learning cadence to "a predefined policy
        # e.g. ... a fixed time interval"; nodes are staggered so some
        # PMs train every round.
        self.learning_period = int(check_positive(learning_period, "learning_period"))
        # Telemetry diagnostics (cumulative; only grown when telemetry
        # is enabled, so the default path stays untouched).
        self.td_error_abs = 0.0
        self.td_updates = 0
        self.train_rounds = 0

    def execute_round(self, node: "Node", sim: "Simulation") -> None:
        if (sim.round_index + node.node_id) % self.learning_period != 0:
            return
        pm: PhysicalMachine = node.payload
        # Only lightly loaded PMs train (no impact on collocated VMs).
        if pm.peak_utilization() > self.utilization_threshold:
            return
        peer_id = self.sampler.select_peer(node, sim)
        if peer_id is None:
            return
        peer_pm: PhysicalMachine = sim.node(peer_id).payload
        profiles = [VmProfile.of_vm(v) for v in pm.vms]
        peer_profiles = [VmProfile.of_vm(v) for v in peer_pm.vms]
        if not sim.network.exchange_ok(
            node.node_id,
            peer_id,
            "glap/profiles",
            size_bytes=len(peer_profiles) * _PROFILE_BYTES,
        ):
            return
        profiles.extend(peer_profiles)
        if len(profiles) < 2:
            return
        track_td = sim.telemetry.enabled
        trainer = LocalTrainer(
            self.models[node.node_id],
            pm.spec.capacity_vector(),
            self._rng,
            iterations_per_round=self.iterations_per_round,
            coverage_target=self.coverage_target,
            track_td=track_td,
        )
        updates = trainer.train_round(profiles)
        if track_td:
            self.td_error_abs += trainer.td_abs_sum
            self.td_updates += trainer.td_updates
            self.train_rounds += 1
        if sim.tracer.enabled:
            sim.tracer.emit(
                "q_pull", sim.round_index, node.node_id,
                peer=peer_id, profiles=len(profiles), updates=updates,
            )
