"""Tests-only oracle: Algorithm 1's inner loop as ``repro.core.learning``
ran it before the draws and the arithmetic were split — one scalar pass
per iteration, profiles as objects.

``prepare_pool`` and ``train_round`` are kept verbatim (class renamed;
the dead ``_group_state`` helper dropped) except for the last step: the
round's transitions are applied one by one through ``get``/``update``
instead of ``QTable.update_many``, so the oracle also runs on the dict
table of ``_reference_qtable.py`` and the differential suite compares
the whole chain, trainer and table, against code that shares nothing
with the batched path.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.learning import VmProfile
from repro.core.qlearning import QLearningModel
from repro.core.states import state_code_fast
from repro.datacenter.resources import N_RESOURCES
from repro.util.validation import check_positive

__all__ = ["ReferenceLocalTrainer", "reference_action_code"]


def reference_action_code(profile: VmProfile) -> int:
    """``VmProfile.action_code`` as it was: the array quotient."""
    frac = profile.average_abs / profile.spec_capacity
    return state_code_fast(max(float(frac[0]), 0.0), max(float(frac[1]), 0.0))


class ReferenceLocalTrainer:
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
            [reference_action_code(p) for p in profiles], dtype=np.int64
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
        # updates are applied after the loop, each map's in order.
        q_out, q_in = self.model.q_out, self.model.q_in
        sent = [
            (q_out.get(s, a), q_out.update(s, a, r, nxt, alpha, gamma))
            for s, a, r, nxt in sends
        ]
        accepted = [
            (q_in.get(s, a), q_in.update(s, a, r, nxt, alpha, gamma))
            for s, a, r, nxt in accepts
        ]
        self.sent, self.accepted = sent, accepted
        if self.track_td:
            for (old_out, new_out), (old_in, new_in) in zip(sent, accepted):
                self.td_abs_sum += abs(new_out - old_out) + abs(new_in - old_in)
            self.td_updates += 2 * len(sent)
        return len(sent)
