"""EcoCloud baseline — probabilistic gradual-threshold consolidation.

Mastroianni, Meo & Papuzzo (TCC 2013): placement and migration decisions
are Bernoulli trials driven by local CPU utilisation, with a lower
threshold T1 and an upper threshold T2 (the paper's configuration:
T1 = 0.3, T2 = 0.8).

* **Assignment**: a PM asked to host a VM accepts with probability
  ``f(u) = (u / T2)^p * (T2 - u) / T2`` for ``u < T2`` (0 otherwise) —
  the EcoCloud shape: near-zero for almost-empty servers (so they can
  drain and switch off), rising with utilisation, and dropping to zero
  at T2 (gradual, not a hard cliff).
* **Underload migration**: a PM with ``u < T1`` tries to drain; each
  round it migrates one VM with probability growing as u falls
  (``(1 - u / T1)``), gradual so that not all underloaded PMs dump
  simultaneously.
* **Overload migration**: a PM with ``u > T2`` migrates one VM with
  probability growing as u exceeds T2.

EcoCloud's original design broadcasts each request through a central
coordinator; the paper points out this is its scalability weakness.  We
keep that semantics but bound the probe set: the migrating PM polls up
to ``probe_count`` random *active* PMs drawn from the whole data centre
(coordinator's-eye view), and the VM goes to the first acceptor that
also has raw capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.baselines.base import ConsolidationPolicy, switch_off
from repro.datacenter.cluster import DataCenter
from repro.simulator.network import Message
from repro.simulator.protocol import Protocol
from repro.util.validation import check_fraction, check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulator.engine import Simulation
    from repro.simulator.node import Node
    from repro.util.rng import RngStreams

__all__ = ["EcoCloudConfig", "EcoCloudProtocol", "EcoCloudPolicy"]


@dataclass(frozen=True)
class EcoCloudConfig:
    """EcoCloud knobs (paper configuration: T1 = 0.3, T2 = 0.8)."""

    lower_threshold: float = 0.3
    upper_threshold: float = 0.8
    #: Shape parameter p of the assignment function (EcoCloud's alpha).
    assignment_shape: float = 3.0
    #: How many candidate hosts one migration request polls.
    probe_count: int = 10

    def __post_init__(self) -> None:
        check_fraction(self.lower_threshold, "lower_threshold")
        check_fraction(self.upper_threshold, "upper_threshold")
        if not self.lower_threshold < self.upper_threshold:
            raise ValueError(
                f"need lower_threshold < upper_threshold, got "
                f"{self.lower_threshold} >= {self.upper_threshold}"
            )
        check_positive(self.assignment_shape, "assignment_shape")
        check_positive(self.probe_count, "probe_count")

    # -- the probability functions (pure, unit-testable) ---------------------

    def accept_probability(self, utilization: float) -> float:
        """Bernoulli accept probability for a host at ``utilization``."""
        u = check_fraction(utilization, "utilization")
        t2 = self.upper_threshold
        if u >= t2:
            return 0.0
        # Normalised so the maximum over [0, T2) is exactly 1 at
        # u* = T2 * p / (p + 1).
        p = self.assignment_shape
        peak = (p / (p + 1.0)) ** p * (1.0 / (p + 1.0))
        val = (u / t2) ** p * ((t2 - u) / t2)
        return float(min(1.0, val / peak))

    def underload_migrate_probability(self, utilization: float) -> float:
        """Probability a host triggers its switch-off (drain) procedure.

        Gradual over the whole [0, T2) band — EcoCloud's servers are
        meant to operate concentrated just below T2 (its paper's
        steady-state histograms), a point its arrival-churn dynamics
        reach naturally but a pure-consolidation setting cannot with a
        hard T1 cut-off.  We therefore use ``(1 - u/T2)^beta`` with
        ``beta`` anchored so the probability is ~0.18 at T1: below T1 a
        server tries hard to shut down, above it the pull weakens
        smoothly instead of vanishing.  (Documented adaptation — see
        DESIGN.md §3.)
        """
        u = check_fraction(utilization, "utilization")
        t2 = self.upper_threshold
        if u >= t2:
            return 0.0
        beta = np.log(0.18) / np.log(1.0 - self.lower_threshold / t2)
        return float((1.0 - u / t2) ** beta)

    def overload_migrate_probability(self, utilization: float) -> float:
        """Probability an overloaded host evicts one VM this round."""
        u = check_fraction(utilization, "utilization")
        t2 = self.upper_threshold
        if u <= t2:
            return 0.0
        return float(min(1.0, (u - t2) / (1.0 - t2)))


class EcoCloudProtocol(Protocol):
    """Per-PM EcoCloud behaviour as a round protocol.

    Decides on PM and VM ids (node id == PM id) over ``dc``'s store,
    reading the current derived-state planes (DESIGN.md §5f).
    """

    def __init__(
        self, dc: DataCenter, config: EcoCloudConfig, rng: np.random.Generator
    ) -> None:
        self.dc = dc
        self.config = config
        self._rng = rng
        self.enabled = False
        self.switch_offs = 0

    def execute_round(self, node: "Node", sim: "Simulation") -> None:
        if not self.enabled:
            return
        pm_id = node.node_id
        store = self.dc.store
        if store.pm_asleep[pm_id] or not store.members[pm_id]:
            return
        store.ensure_planes()
        cpu = store.vm_cur_cpu
        u = store.pm_cpu_utilization(pm_id)
        cfg = self.config
        if u > cfg.upper_threshold:
            if self._rng.random() < cfg.overload_migrate_probability(u):
                # Evict the largest CPU consumer to relieve pressure fast.
                vm_id = max(store.members[pm_id], key=lambda v: (cpu[v], -v))
                self._request_migration(vm_id, pm_id, self._others(pm_id), sim)
        else:
            if self._rng.random() < cfg.underload_migrate_probability(u):
                # Switch-off procedure: try to migrate *all* VMs, each
                # through its own probe + Bernoulli acceptance.  A partial
                # drain leaves the PM active with what remained.  No PM
                # sleeps or wakes inside the drain: one list of the others.
                others = self._others(pm_id)
                for vm_id in sorted(store.members[pm_id], key=lambda v: (cpu[v], v)):
                    self._request_migration(vm_id, pm_id, others, sim)
                if not store.members[pm_id]:
                    switch_off(self.dc, sim, pm_id)
                    self.switch_offs += 1

    # -- coordinator-style placement -----------------------------------------------

    def _others(self, src: int) -> List[int]:
        """The awake PMs' ids but ``src``'s, ascending."""
        return [pm_id for pm_id in self.dc.store.awake_ids() if pm_id != src]

    def _request_migration(
        self, vm_id: int, src: int, others: List[int], sim: "Simulation"
    ) -> bool:
        store = self.dc.store
        for pm_id in self._probe_targets(src, others, sim):
            if self._rng.random() < self.config.accept_probability(
                store.pm_cpu_utilization(pm_id)
            ):
                if store.pm_fits(pm_id, vm_id):
                    self.dc.migrate(vm_id, pm_id)
                    return True
        return False

    def _probe_targets(self, src: int, others: List[int], sim: "Simulation") -> List[int]:
        """Up to ``probe_count`` random PMs of ``others`` (coordinator
        broadcast), :meth:`_others` of ``src``."""
        if not others:
            return []
        # The broadcast request, for traffic accounting.
        sim.network.deliver(Message(src, -1, "ecocloud/broadcast", size_bytes=32))
        k = min(self.config.probe_count, len(others))
        idx = self._rng.choice(len(others), size=k, replace=False)
        return [others[i] for i in idx]


class EcoCloudPolicy(ConsolidationPolicy):
    """EcoCloud wired onto a simulation."""

    name = "EcoCloud"

    def __init__(self, config: Optional[EcoCloudConfig] = None) -> None:
        self.config = config if config is not None else EcoCloudConfig()
        self.protocol: Optional[EcoCloudProtocol] = None

    def attach(self, dc: DataCenter, sim: "Simulation", streams: "RngStreams",
               warmup_rounds: int) -> None:
        self.protocol = EcoCloudProtocol(dc, self.config, streams.get("ecocloud"))
        for node in sim.nodes:
            node.register("ecocloud", self.protocol)
        if sim.telemetry.enabled:
            sim.telemetry.register_counters(
                "ecocloud",
                lambda: {"switch_offs": float(self.protocol.switch_offs)},
            )

    def end_warmup(self, dc: DataCenter, sim: "Simulation") -> None:
        assert self.protocol is not None, "attach() must run first"
        self.protocol.enabled = True

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        assert self.protocol is not None
        return {
            "enabled": self.protocol.enabled,
            "switch_offs": self.protocol.switch_offs,
        }

    def load_state_dict(self, state: dict) -> None:
        assert self.protocol is not None
        self.protocol.enabled = bool(state["enabled"])
        self.protocol.switch_offs = int(state["switch_offs"])
