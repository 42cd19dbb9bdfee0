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
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.qlearning import QLearningModel
from repro.core.states import N_LEVELS, level_indices, state_code_fast
from repro.datacenter.resources import N_RESOURCES, MachineSpec
from repro.overlay.sampler import PeerSampler
from repro.simulator.protocol import Protocol
from repro.util.validation import check_fraction, check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.datacenter.cluster import DataCenter
    from repro.simulator.engine import Simulation
    from repro.simulator.node import Node

__all__ = ["VmProfile", "LocalTrainer", "GossipLearningProtocol"]

# Estimated bytes per profile on the wire (2 demand vectors + count).
_PROFILE_BYTES = 40
#: Columns of a trainer's prefix-sum scratch: one per pool entry of every
#: collected iteration, four float64 planes deep (512 KB).  Chosen by
#: measurement (DESIGN.md section 5h): a flush is ~30 numpy calls however
#: many rows it holds, and ~14 paper-sized training rounds fit.
_CHUNK_CELLS = 16384


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

    def action_code(self) -> int:
        """The action (VM load level) from *average* demand on the VM scale."""
        return _action_code(*self.average_abs.tolist(), *self.spec_capacity.tolist())


def _action_code(avg_cpu: float, avg_mem: float, cap_cpu: float, cap_mem: float) -> int:
    """Level code of an absolute average demand on the VM's own scale.

    The quotient ``(fraction * capacity) / capacity`` need not round back
    to the monitored fraction, so at a bucket edge this is *not* the
    store's ``vm_action`` plane (coded from the raw fraction).
    """
    return state_code_fast(max(avg_cpu / cap_cpu, 0.0), max(avg_mem / cap_mem, 0.0))


def _profile_rows(profiles: Sequence[VmProfile]) -> Tuple[List[float], ...]:
    """Profiles as the columns :meth:`LocalTrainer.collect` takes."""
    avg = [p.average_abs.tolist() for p in profiles]
    cur = [p.current_abs.tolist() for p in profiles]
    return (
        [a[0] for a in avg], [a[1] for a in avg], [c[0] for c in cur], [c[1] for c in cur],
        [p.action_code() for p in profiles],
    )


@dataclass
class _Round:
    """One collected training round, until its last row is flushed."""

    model: QLearningModel
    track_td: bool
    rows: int = 0  # held in the scratch right now
    td_sum: float = 0.0  # absolute TD error of the rows already flushed
    finished: bool = False  # every iteration drawn


class LocalTrainer:
    """Algorithm 1's inner loop over pools of VM profiles, in two halves.

    :meth:`collect` does what the determinism contract pins — per
    iteration the four ``Generator`` draws, in order, and the sender
    size ``k_s`` the last of them depends on.  Everything downstream
    (``k_t``, the four state codes, the two rewards, the Q-updates)
    reads nothing a later draw depends on and touches only the trained
    model, so :meth:`flush` computes it later, for every collected
    iteration of every model at once.  Nothing may read a model that
    has unflushed iterations.
    """

    def __init__(
        self,
        model: Optional[QLearningModel],
        pm_capacity: np.ndarray,
        rng: np.random.Generator,
        iterations_per_round: int = 20,
        coverage_target: float = 2.0,
        max_profiles: int = 256,
        track_td: bool = False,
        ledger: object = None,
    ) -> None:
        """
        Parameters
        ----------
        model:
            The model :meth:`train_round` trains (:meth:`collect` names
            its own), updated in place.
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
            Whether :meth:`train_round` accumulates the absolute TD error
            of every Q update (telemetry); perturbs nothing.
        ledger:
            The object whose ``td_error_abs``/``td_updates`` receive the
            TD sums of finished rounds at flush (default: this trainer).
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
        self.td_error_abs = 0.0
        self.td_updates = 0
        self._ledger = self if ledger is None else ledger
        self._cap4 = np.tile(self.pm_capacity, 2)[:, None]
        self._target = (self.coverage_target * self.pm_capacity).tolist()
        self._tile = np.arange(self.max_profiles)
        # Collected, unflushed iterations.  ``_sums[:, :_used]`` holds, row
        # after row, the prefix sums over the permuted pool (planes: avg
        # cpu, avg mem, cur cpu, cur mem); the lists hold one entry per row.
        self._sums = np.empty((4, _CHUNK_CELLS), dtype=np.float64)
        self._used = 0
        self._width: List[int] = []
        self._k_s: List[int] = []
        self._u_t: List[float] = []
        self._pick: Tuple[List[float], List[float], List[int]] = ([], [], [])
        self._rounds: List[_Round] = []

    # -- pool preparation ---------------------------------------------------

    def _pool_index(self, avg_abs: np.ndarray) -> np.ndarray:
        """Base-profile index of every pool entry: the base in order, then
        round-robin duplicates until aggregate average demand covers the
        target in both resources or the pool holds ``max_profiles``."""
        m = avg_abs.shape[1]
        if m >= self.max_profiles:
            return np.arange(m)
        idx = self._tile % m
        # total[r, j]: demand of a pool of j + 1, summed in pool order like
        # a ``+=`` loop (``sum`` is pairwise); nondecreasing, demands >= 0.
        total = np.add.accumulate(avg_abs.take(idx, axis=1), axis=1)
        short = max(total[0].searchsorted(self._target[0]), total[1].searchsorted(self._target[1]))
        return idx[: max(m, min(int(short) + 1, self.max_profiles))]

    def prepare_pool(self, profiles: Sequence[VmProfile]) -> List[VmProfile]:
        """Duplicate profiles until heavy states are reachable.

        Returns a new list; the originals are shared (profiles are
        immutable).
        """
        if not profiles:
            return []
        avg_abs = np.array([p.average_abs for p in profiles], dtype=np.float64).T
        return [profiles[i] for i in self._pool_index(avg_abs).tolist()]

    # -- one training round ------------------------------------------------------

    def train_round(self, profiles: Sequence[VmProfile]) -> int:
        """Run ``k`` simulated migrations on ``self.model``; returns
        updates performed (per map)."""
        updates = self.collect(self.model, *_profile_rows(profiles), track_td=self.track_td)
        self.flush()
        return updates

    def collect(
        self,
        model: QLearningModel,
        avg_cpu: Sequence[float],
        avg_mem: Sequence[float],
        cur_cpu: Sequence[float],
        cur_mem: Sequence[float],
        actions: Sequence[int],
        track_td: bool = False,
    ) -> int:
        """Draw one training round of ``model`` over the base profiles
        given as columns (absolute demands, action codes); returns the
        updates per map that :meth:`flush` will apply."""
        m = len(actions)
        if not m:
            return 0
        base = np.array((avg_cpu, avg_mem, cur_cpu, cur_mem), dtype=np.float64)
        if not base.min() >= 0.0:  # prefix sums must be nondecreasing (also NaN)
            raise ValueError("profile demands must be >= 0")
        pool_idx = self._pool_index(base[:2])
        n = pool_idx.shape[0]
        if n < 2:
            return 0
        # Per-resource utilisation of every pool entry, one row per plane:
        # every group statistic is a prefix sum over the permuted pool.
        pool = (base / self._cap4).take(pool_idx, axis=1)
        avg0, avg1, cur0, cur1 = pool.tolist()
        action = [actions[i] for i in pool_idx.tolist()]
        rng = self._rng
        permutation, random, integers = rng.permutation, rng.random, rng.integers
        cap = n - 1  # leave at least one profile for the target
        k = self.iterations_per_round
        perms, sizes, bounds, picks0, picks1, picked = [], [], [], [], [], []
        for _ in range(k):
            # vmss, vmst: disjoint random subsets per iteration.  Subset
            # sizes are drawn so the simulated PMs span the whole load
            # range a real exchange can encounter — senders from "almost
            # empty" to "overloaded" (their relief path needs coverage),
            # targets likewise.  Without load-aimed sampling, a duplicated
            # pool makes most simulated targets overloaded from the start
            # and Q_in learns to reject everything.
            perm = permutation(n)
            order = perm.tolist()
            u_s = 0.15 + (1.3 - 0.15) * random()  # uniform(0.15, 1.3), bit for bit
            # k_s: the first prefix of the permuted pool whose average
            # demand reaches u_s in either resource.  The += sums are the
            # ones ``add.accumulate`` makes, so the stop is the
            # ``searchsorted`` of u_s in their running peak.
            k_s, a0, a1 = 1, 0.0, 0.0
            for i in order:
                if k_s == cap:
                    break
                a0 += avg0[i]
                a1 += avg1[i]
                if a0 >= u_s or a1 >= u_s:
                    break
                k_s += 1
            bounds.append(0.1 + (1.2 - 0.1) * random())  # uniform(0.1, 1.2)
            pick = order[integers(k_s)]
            perms.append(perm)
            sizes.append(k_s)
            picks0.append(cur0[pick])
            picks1.append(cur1[pick])
            picked.append(action[pick])
        # All four planes' prefix sums over every permutation of the round:
        # row by row the additions of a 1-D ``accumulate``.
        permuted = pool.take(np.array(perms), axis=1)
        entry = _Round(model, track_td)
        self._rounds.append(entry)
        done = 0
        while done < k:
            room = (self._sums.shape[1] - self._used) // n
            if not room:
                self.flush()
                if n > self._sums.shape[1]:
                    self._sums = np.empty((4, n), dtype=np.float64)
                continue
            rows = min(room, k - done)
            chunk = slice(done, done + rows)
            block = self._sums[:, self._used:self._used + rows * n].reshape(4, rows, n)
            np.add.accumulate(permuted[:, chunk], axis=2, out=block)
            # The per-row lists grow with the rows written, never ahead of
            # them: a flush reads exactly the rows in the scratch.
            self._width.extend([n] * rows)
            self._k_s.extend(sizes[chunk])
            self._u_t.extend(bounds[chunk])
            for column, values in zip(self._pick, (picks0, picks1, picked)):
                column.extend(values[chunk])
            self._used += rows * n
            entry.rows += rows
            done += rows
        entry.finished = True
        return k

    def flush(self) -> None:
        """Apply every collected iteration: target sizes, state codes,
        rewards, then each model's Q-updates in collection order."""
        if not self._k_s:
            return
        sums = self._sums[:, :self._used]
        width = np.array(self._width)
        start = np.cumsum(width) - width
        k_s = np.array(self._k_s)
        first = start + (k_s - 1)
        sender = sums[:, first]  # prefix sums over each sender group
        # Rebase the average planes on the target group.  k_t, the
        # searchsorted of u_t in the rebased running peak, is a count:
        # the k_s cells up to ``first`` are <= 0 < u_t and the rest
        # nondecreasing (demands >= 0); rows are ragged, so no padding
        # column exists to be counted.
        np.subtract(sums[:2], np.repeat(sender[:2], width, axis=1), out=sums[:2])
        below = np.maximum(sums[0], sums[1]) < np.repeat(np.array(self._u_t), width)
        k_t = np.add.reduceat(below.view(np.int8), start, dtype=np.intp) - k_s + 1
        both = sums[:, first + np.minimum(k_t, width - k_s)]  # all remaining at most
        cur = np.array(self._pick[:2])
        # Sender: state before from averages (with the VM), after from
        # currents (without it; a rounding-negative difference is Low like
        # 0).  Recipient: before from averages (without the VM; already
        # rebased), after from currents (with it).
        util = np.concatenate((
            sender[:2], sender[2:] - cur, both[:2], both[2:] - sender[2:] + cur,
        ))
        level = level_indices(util)
        s_before, s_after, t_before, t_after = (
            level[0::2] * N_LEVELS + level[1::2]
        ).tolist()
        action = self._pick[2]
        ledger, at = self._ledger, 0
        for entry in self._rounds:
            model, cfg = entry.model, entry.model.config
            here = slice(at, at + entry.rows)
            at, entry.rows = here.stop, 0
            sent = model.q_out.update_columns(
                s_before[here], action[here],
                list(map(cfg.reward_out.of_state, s_after[here])), s_after[here],
                cfg.alpha, cfg.gamma,
            )
            accepted = model.q_in.update_columns(
                t_before[here], action[here],
                list(map(cfg.reward_in.of_state, t_after[here])), t_after[here],
                cfg.alpha, cfg.gamma,
            )
            if entry.track_td:
                for (old_out, new_out), (old_in, new_in) in zip(sent, accepted):
                    entry.td_sum += abs(new_out - old_out) + abs(new_in - old_in)
                if entry.finished:
                    ledger.td_error_abs += entry.td_sum
                    ledger.td_updates += 2 * self.iterations_per_round
        # A round still being collected stays: its next rows follow.
        self._rounds = [] if entry.finished else [entry]
        self._used = 0
        for column in (self._width, self._k_s, self._u_t, *self._pick):
            column.clear()


class GossipLearningProtocol(Protocol):
    """Algorithm 1 as a round protocol: the *learning phase*.

    Per round, a PM whose utilisation is at most ``utilization_threshold``
    pulls the VM profiles of one random neighbour, merges them with its
    own and trains its local model; utilisation and profiles are read
    off ``dc``'s store by PM id (node id == PM id).  Models are per node
    (``models`` keyed by node id); they diverge across PMs until the
    aggregation phase unifies them.

    A training round is *collected* when its node executes and applied
    by a later :meth:`flush`; whoever reads a model calls that first
    (the protocol itself at its first call of each round, before that
    round trains; :class:`~repro.core.glap.GlapPolicy` on every access).
    """

    def __init__(
        self,
        dc: "DataCenter",
        models: dict,
        sampler: PeerSampler,
        rng: np.random.Generator,
        utilization_threshold: float = 0.5,
        iterations_per_round: int = 20,
        coverage_target: float = 2.0,
        learning_period: int = 1,
    ) -> None:
        self.dc = dc
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
        # Cumulative diagnostics.  The TD sums grow only with telemetry on
        # (and at flush, when the updates happen); the round count always.
        self.td_error_abs = 0.0
        self.td_updates = 0
        self.train_rounds = 0
        self._trainer: Optional[LocalTrainer] = None
        self._round = -1  # the round of the last call

    def flush(self) -> None:
        """Apply every collected training round to its model."""
        if self._trainer is not None:
            self._trainer.flush()

    def _trainer_for(self, spec: MachineSpec) -> LocalTrainer:
        """The one trainer of this protocol (of this PM spec)."""
        capacity = spec.capacity_vector()
        if self._trainer is None or self._trainer.pm_capacity is not capacity:
            self.flush()
            self._trainer = LocalTrainer(
                None, capacity, self._rng,
                iterations_per_round=self.iterations_per_round,
                coverage_target=self.coverage_target,
                ledger=self,
            )
        return self._trainer

    def execute_round(self, node: "Node", sim: "Simulation") -> None:
        if sim.round_index != self._round:
            # Nothing collected outlives its round.
            self._round = sim.round_index
            self.flush()
        if (sim.round_index + node.node_id) % self.learning_period != 0:
            return
        store = self.dc.store
        # Only lightly loaded PMs train (no impact on collocated VMs).
        if store.pm_peak_utilization(node.node_id) > self.utilization_threshold:
            return
        peer_id = self.sampler.select_peer(node, sim)
        if peer_id is None:
            return
        peer_members = store.members[peer_id]
        if not sim.network.exchange_ok(
            node.node_id,
            peer_id,
            "glap/profiles",
            size_bytes=len(peer_members) * _PROFILE_BYTES,
        ):
            return
        members = store.members[node.node_id]
        n_profiles = len(members) + len(peer_members)
        if n_profiles < 2:
            return
        # The pull arrived: only now are the profiles read.
        spec = store.vm_spec
        rows = store.vm_demand_rows(members + peer_members)
        rows += ([_action_code(a, b, spec.cpu_mips, spec.mem_mb) for a, b in zip(*rows[:2])],)
        updates = self._trainer_for(store.pm_spec).collect(
            self.models[node.node_id], *rows, track_td=sim.telemetry.enabled
        )
        self.train_rounds += 1
        if sim.tracer.enabled:
            sim.tracer.emit(
                "q_pull", sim.round_index, node.node_id,
                peer=peer_id, profiles=n_profiles, updates=updates,
            )
