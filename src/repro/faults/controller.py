"""Applying a :class:`~repro.faults.plan.FaultPlan` to a live simulation.

The controller is the only piece of the system that injects faults, and
it does so exclusively through public APIs: ``Network.configure`` /
``set_partition`` for the message plane, ``Node.fail`` and the engine's
``wake(recover=True)`` for crash/restart churn.  Every random decision
(churn draws) comes from the single generator handed in — the runner
passes the dedicated ``"faults"`` stream — so a chaos run replays
bit-for-bit from its root seed, and a zero-fault plan consumes no
randomness at all.

Call :meth:`FaultController.before_round` once per simulation round,
*before* ``sim.run_round()``: faults scheduled for round ``r`` are then
in force while round ``r`` executes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.faults.plan import FaultPhase, FaultPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.datacenter.cluster import DataCenter
    from repro.simulator.engine import Simulation

__all__ = ["FaultController"]


class FaultController:
    """Drives one plan against one simulation.

    Diagnostics are public counters so runs can report how much chaos
    actually landed (``crashes_injected``, ``restarts_injected``,
    ``phase_changes``) — a 30%-loss experiment that never dropped a
    message is a configuration bug worth surfacing.
    """

    def __init__(self, plan: FaultPlan, rng: np.random.Generator) -> None:
        self.plan = plan
        self._rng = rng
        self._installed = False
        self._active_phase: Optional[FaultPhase] = None
        #: node_id -> round at which churn restarts it.
        self._churn_down: Dict[int, int] = {}
        self.crashes_injected = 0
        self.restarts_injected = 0
        self.phase_changes = 0

    # -- lifecycle ------------------------------------------------------------

    def install(self, dc: "DataCenter", sim: "Simulation") -> "FaultController":
        """Bind the fault RNG to the simulation's network.

        Safe for zero-fault plans: the network only consumes randomness
        when a positive loss probability is configured, so installing the
        controller never perturbs a fault-free run.
        """
        sim.network.configure(rng=self._rng)
        if sim.telemetry.enabled:
            sim.telemetry.register_counters("faults", self._telemetry_counters)
        self._installed = True
        return self

    def _telemetry_counters(self) -> Dict[str, float]:
        return {
            "crashes": float(self.crashes_injected),
            "restarts": float(self.restarts_injected),
            "phase_changes": float(self.phase_changes),
        }

    def before_round(self, dc: "DataCenter", sim: "Simulation") -> None:
        """Apply everything the plan schedules for the upcoming round."""
        if not self._installed:
            raise RuntimeError("call install(dc, sim) before before_round")
        round_index = sim.round_index
        self._apply_phase(sim, self.plan.phase_at(round_index))
        for node_id in self.plan.restarts_at(round_index):
            self._restart(dc, sim, node_id)
        for node_id in self.plan.crashes_at(round_index):
            self._crash(sim, node_id)
        if self.plan.churn_probability > 0.0:
            self._apply_churn(dc, sim, round_index)

    # -- message plane --------------------------------------------------------

    def _apply_phase(self, sim: "Simulation", phase: Optional[FaultPhase]) -> None:
        if phase == self._active_phase:
            return
        if phase is None:
            sim.network.configure(loss_probability=0.0, loss_per_kind={})
            sim.network.clear_partition()
        else:
            sim.network.configure(
                loss_probability=phase.loss,
                loss_per_kind=dict(phase.loss_per_kind),
            )
            sim.network.set_partition(phase.partition)
        self._active_phase = phase
        self.phase_changes += 1

    # -- crash/restart --------------------------------------------------------

    def _crash(self, sim: "Simulation", node_id: int) -> bool:
        node = sim.node(node_id)
        if node.is_failed:
            return False
        node.fail()
        self.crashes_injected += 1
        if sim.tracer.enabled:
            sim.tracer.emit("pm_crash", sim.round_index, node_id)
        return True

    def _restart(self, dc: "DataCenter", sim: "Simulation", node_id: int) -> bool:
        node = sim.node(node_id)
        if not node.is_failed:
            return False
        if dc.store.pm_asleep[node_id]:
            # The PM was consolidated away (or drained post-crash) in the
            # meantime: it rejoins the population switched off, exactly
            # like any other sleeping host — policies may wake it later.
            node.recover()
            node.sleep()
        else:
            sim.wake(node_id, recover=True)
        self.restarts_injected += 1
        if sim.tracer.enabled:
            sim.tracer.emit("pm_restart", sim.round_index, node_id)
        return True

    def _apply_churn(self, dc: "DataCenter", sim: "Simulation", round_index: int) -> None:
        # Restarts first: a node that just served its downtime can, in
        # principle, be re-crashed by this round's draw below.
        due = sorted(
            nid for nid, when in self._churn_down.items() if when <= round_index
        )
        for node_id in due:
            del self._churn_down[node_id]
            self._restart(dc, sim, node_id)
        p = self.plan.churn_probability
        for node in sim.nodes:  # fixed id order => deterministic draws
            if not node.is_up:
                continue
            if self._rng.random() < p:
                self._crash(sim, node.node_id)
                self._churn_down[node.node_id] = (
                    round_index + self.plan.churn_downtime_rounds
                )

    # -- checkpointing --------------------------------------------------------

    def state_dict(self) -> Dict:
        """JSON-safe progress state (the plan itself lives in the scenario).

        The active phase is stored as an index into ``plan.phases`` so
        the restored controller holds the *same* phase object and its
        value-equality skip in ``_apply_phase`` keeps working (no
        spurious ``phase_changes`` increment on the first post-resume
        round).
        """
        active = None
        if self._active_phase is not None:
            active = self.plan.phases.index(self._active_phase)
        return {
            "active_phase": active,
            "churn_down": {str(nid): when for nid, when in self._churn_down.items()},
            "crashes_injected": self.crashes_injected,
            "restarts_injected": self.restarts_injected,
            "phase_changes": self.phase_changes,
        }

    def load_state_dict(self, state: Dict) -> None:
        """Restore progress captured by :meth:`state_dict` (post-install).

        The network's loss/partition configuration is restored
        separately via ``Network.load_state_dict`` — this method only
        re-arms the controller's schedule position and counters.
        """
        idx = state["active_phase"]
        self._active_phase = None if idx is None else self.plan.phases[idx]
        self._churn_down = {
            int(nid): int(when) for nid, when in state["churn_down"].items()
        }
        self.crashes_injected = int(state["crashes_injected"])
        self.restarts_injected = int(state["restarts_injected"])
        self.phase_changes = int(state["phase_changes"])

    # -- reporting ------------------------------------------------------------

    def stats_dict(self) -> Dict[str, float]:
        """Flat diagnostics suitable for ``RunResult.extras``."""
        return {
            "fault_crashes": float(self.crashes_injected),
            "fault_restarts": float(self.restarts_injected),
            "fault_phase_changes": float(self.phase_changes),
        }
