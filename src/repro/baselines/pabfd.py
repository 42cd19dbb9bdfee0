"""PABFD baseline — centralised Power-Aware Best Fit Decreasing.

Beloglazov & Buyya (CCPE 2012), as configured by the paper: "a
centralized server periodically monitors resources usage of PMs and
using global information makes consolidation decisions.  It calculates
[the] upper threshold by offline statistical analysis of historical data
... The Median Absolute Deviation (MAD) is used as an estimator."

Per round the central controller:

1. records every PM's CPU utilisation into its history window;
2. **overload detection** — a host whose CPU utilisation exceeds its
   MAD-adaptive threshold sheds VMs chosen by Minimum Migration Time
   (smallest memory first — cheapest to move) until it projects below
   the threshold;
3. **underload detection** — the least-utilised active host is drained
   entirely if all its VMs can be placed elsewhere, then switched off;
4. **placement** — Power-Aware BFD: VMs sorted by decreasing CPU demand,
   each placed on the active host with the least power increase that
   fits and stays below its threshold; being centralised, PABFD may wake
   sleeping hosts when nothing else fits (the distributed protocols
   cannot).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.base import ConsolidationPolicy, switch_off
from repro.baselines.thresholds import mad_upper_threshold
from repro.datacenter.cluster import DataCenter
from repro.datacenter.power import LinearPowerModel
from repro.util.io import pack_array, split_rows, unpack_array
from repro.util.validation import check_fraction, check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulator.engine import Simulation
    from repro.util.rng import RngStreams

__all__ = ["PabfdConfig", "PabfdController", "PabfdPolicy"]


@dataclass(frozen=True)
class PabfdConfig:
    """PABFD knobs (defaults follow Beloglazov & Buyya's MAD variant)."""

    safety: float = 2.58
    history_window: int = 30
    threshold_floor: float = 0.5
    #: Upper bound on VMs shed from one overloaded host per round.
    max_evictions_per_host: int = 10
    #: The central manager runs "periodically" (Beloglazov: every 5
    #: simulated minutes); with 2-minute rounds that is one control pass
    #: every few rounds.  Overloads persist between control points —
    #: the latency cost of centralisation.
    control_period_rounds: int = 6
    #: Whether the centralised manager may reactivate sleeping hosts.
    #: Beloglazov's original system can; the paper's PeerSim
    #: reimplementation evidently could not (its PABFD packs *below* the
    #: BFD baseline with 58% of PMs overloaded — impossible if overload
    #: relief could reopen capacity), so the reproduction defaults to
    #: False.  Flip for the "PABFD with host reactivation" ablation.
    allow_wake_ups: bool = False

    def __post_init__(self) -> None:
        check_positive(self.safety, "safety")
        check_positive(self.history_window, "history_window")
        check_fraction(self.threshold_floor, "threshold_floor")
        check_positive(self.max_evictions_per_host, "max_evictions_per_host")
        check_positive(self.control_period_rounds, "control_period_rounds")


class PabfdController:
    """The central manager: global view, per-round consolidation pass.

    Decides on PM and VM ids over ``dc``'s store, reading the current
    derived-state planes (DESIGN.md §5f): a PM's CPU demand is
    ``pm_cur_cpu`` (its members' sum in membership order), a VM's CPU
    and memory demands are ``vm_cur_cpu`` / ``vm_cur_mem``.  A pass makes
    the planes current once; a migration keeps them current for its two
    endpoints.
    """

    def __init__(
        self,
        dc: DataCenter,
        config: PabfdConfig,
        power_model: Optional[LinearPowerModel] = None,
    ) -> None:
        self.dc = dc
        self.config = config
        self.power_model = power_model if power_model is not None else LinearPowerModel()
        self._history: Dict[int, Deque[float]] = {
            pm_id: deque(maxlen=config.history_window) for pm_id in range(dc.n_pms)
        }
        #: Each host's threshold, worked out once per history state: a
        #: history changes only in ``record_histories``, ``_wake_one`` and
        #: a restore, which drop what they change.
        self._thresholds: Dict[int, float] = {}
        self.enabled = False
        self.wake_ups = 0
        self.switch_offs = 0
        self._enabled_steps = 0

    # -- per-round hooks -------------------------------------------------------

    def record_histories(self) -> None:
        """Monitoring runs every round, even before consolidation starts."""
        store = self.dc.store
        store.ensure_planes()
        self._thresholds.clear()
        for pm_id in store.awake_ids():
            self._history[pm_id].append(store.pm_cpu_utilization(pm_id))

    def step(self, sim: "Simulation") -> None:
        """Monitoring every round; a consolidation pass only at control
        points (every ``control_period_rounds`` rounds)."""
        self.record_histories()
        if not self.enabled:
            return
        self._enabled_steps += 1
        if self._enabled_steps % self.config.control_period_rounds != 0:
            return
        to_place = self._shed_overloaded()
        self._place(to_place, sim)
        self._drain_underloaded(sim)

    # -- thresholds ----------------------------------------------------------------

    def threshold_of(self, pm_id: int) -> float:
        threshold = self._thresholds.get(pm_id)
        if threshold is None:
            threshold = self._thresholds[pm_id] = mad_upper_threshold(
                list(self._history[pm_id]),
                safety=self.config.safety,
                floor=self.config.threshold_floor,
            )
        return threshold

    # -- phase 1: overload detection + MMT selection -----------------------------------

    def _shed_overloaded(self) -> List[int]:
        store = self.dc.store
        cpu_mips = store.pm_spec.cpu_mips
        shed: List[int] = []
        for pm_id in store.awake_ids():
            threshold = self.threshold_of(pm_id)
            projected = store.pm_cpu_utilization(pm_id)
            # ">=" matters: a host pinned at exactly 100% has MAD 0 and a
            # threshold of 1.0; strict ">" would never relieve it.
            if projected < threshold:
                continue
            # Minimum Migration Time: smallest memory demand first.
            mem = store.vm_cur_mem
            candidates = sorted(store.members[pm_id], key=lambda v: (mem[v], v))
            evicted = 0
            for vm_id in candidates:
                if projected < threshold or evicted >= self.config.max_evictions_per_host:
                    break
                projected -= store.vm_cur_cpu[vm_id] / cpu_mips
                shed.append(vm_id)
                evicted += 1
        return shed

    # -- phase 2: power-aware BFD placement --------------------------------------------

    def _power_increase(self, pm_id: int, vm_id: int) -> float:
        store = self.dc.store
        u_now = store.pm_cpu_utilization(pm_id)
        u_after = min(1.0, u_now + store.vm_cur_cpu[vm_id] / store.pm_spec.cpu_mips)
        return self.power_model.power(u_after) - self.power_model.power(u_now)

    def _choose_host(
        self, vm_id: int, exclude: int, placed_load: Dict[int, float]
    ) -> Optional[int]:
        """The awake PM (not ``exclude``) with the least power increase
        that takes VM ``vm_id`` strictly below its threshold — filling to
        exactly 1.0 would place the receiver straight into overload —
        with its memory within capacity, ties to the lowest id.

        ``placed_load``: CPU already planned onto hosts during a drain
        (those migrations have not executed yet), counted in their CPU
        demand.  The threshold is at most 1, so a host it admits also
        has the CPU capacity.
        """
        store = self.dc.store
        spec = store.pm_spec
        vm_cpu, vm_mem = store.vm_cur_cpu[vm_id], store.vm_cur_mem[vm_id]
        best: Optional[Tuple[float, int]] = None
        for pm_id in store.awake_ids():
            if pm_id == exclude or not store.pm_cur_mem[pm_id] + vm_mem <= spec.mem_mb:
                continue
            cpu = store.pm_cur_cpu[pm_id] + placed_load.get(pm_id, 0.0)
            if (cpu + vm_cpu) / spec.cpu_mips < self.threshold_of(pm_id):
                key = (self._power_increase(pm_id, vm_id), pm_id)
                if best is None or key < best:
                    best = key
        return best[1] if best is not None else None

    def _place(self, vm_ids: List[int], sim: "Simulation") -> None:
        store = self.dc.store
        cpu = store.vm_cur_cpu
        # Decreasing CPU demand — the "D" of PABFD.
        for vm_id in sorted(vm_ids, key=lambda v: (-cpu[v], v)):
            src = int(store.host[vm_id])
            host = self._choose_host(vm_id, src, {})
            if host is None and self.config.allow_wake_ups:
                host = self._wake_one(sim)
            if host is not None and host != src:
                self.dc.migrate(vm_id, host)
            # else: nowhere to go — the VM stays; the host remains overloaded.

    def _wake_one(self, sim: "Simulation") -> Optional[int]:
        """Centralised privilege: reactivate one sleeping host."""
        store = self.dc.store
        asleep = np.flatnonzero(store.pm_asleep)
        if asleep.size == 0:
            return None
        pm_id = int(asleep[0])
        store.pm_asleep[pm_id] = False
        sim.wake(pm_id)
        self._history[pm_id].clear()
        self._thresholds.pop(pm_id, None)
        self.wake_ups += 1
        return pm_id

    # -- phase 3: underload draining ----------------------------------------------------

    def _drain_underloaded(self, sim: "Simulation") -> None:
        """Beloglazov's underload pass: repeatedly drain the least
        utilised host until a drain fails (no feasible full placement)."""
        store = self.dc.store
        drained: set = set()
        while True:
            active = [
                pm_id for pm_id in store.awake_ids()
                if store.members[pm_id] and pm_id not in drained
            ]
            if len(active) <= 1:
                return
            source = min(active, key=lambda p: (store.pm_cpu_utilization(p), p))
            if not self._drain_one(source, sim):
                return
            drained.add(source)

    def _drain_one(self, source: int, sim: "Simulation") -> bool:
        """Plan a full drain of PM ``source``; abort (placing nothing)
        unless every VM fits.  Returns True when the host was emptied."""
        store = self.dc.store
        cpu = store.vm_cur_cpu
        plan: List[Tuple[int, int]] = []
        placed_load: Dict[int, float] = {}
        for vm_id in sorted(store.members[source], key=lambda v: (-cpu[v], v)):
            host = self._choose_host(vm_id, source, placed_load)
            if host is None:
                return False
            plan.append((vm_id, host))
            placed_load[host] = placed_load.get(host, 0.0) + cpu[vm_id]
        for vm_id, host in plan:
            self.dc.migrate(vm_id, host)
        if not store.members[source]:
            switch_off(self.dc, sim, source)
            self.switch_offs += 1
            return True
        return False


class PabfdPolicy(ConsolidationPolicy):
    """PABFD wired onto a simulation (a controller, no node protocols)."""

    name = "PABFD"

    def __init__(self, config: Optional[PabfdConfig] = None) -> None:
        self.config = config if config is not None else PabfdConfig()
        self.controller: Optional[PabfdController] = None

    def attach(self, dc: DataCenter, sim: "Simulation", streams: "RngStreams",
               warmup_rounds: int) -> None:
        self.controller = PabfdController(dc, self.config)
        if sim.telemetry.enabled:
            sim.telemetry.register_counters(
                "pabfd",
                lambda: {
                    "switch_offs": float(self.controller.switch_offs),
                    "wake_ups": float(self.controller.wake_ups),
                },
            )

    def end_warmup(self, dc: DataCenter, sim: "Simulation") -> None:
        assert self.controller is not None, "attach() must run first"
        self.controller.enabled = True

    def step(self, dc: DataCenter, sim: "Simulation") -> None:
        assert self.controller is not None, "attach() must run first"
        self.controller.step(sim)

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        assert self.controller is not None
        ctl = self.controller
        rows = ctl._history.values()
        counts = np.fromiter(map(len, rows), "<i4", len(rows))
        return {
            # Ragged rows end to end, beside their owners and lengths.
            "histories": {
                "owner": pack_array(np.fromiter(ctl._history, "<i4", len(rows))),
                "count": pack_array(counts),
                "values": pack_array(
                    np.fromiter(chain.from_iterable(rows), "<f8", int(counts.sum()))
                ),
            },
            "enabled": ctl.enabled,
            "wake_ups": ctl.wake_ups,
            "switch_offs": ctl.switch_offs,
            "rounds_seen": ctl._enabled_steps,
        }

    def load_state_dict(self, state: dict) -> None:
        assert self.controller is not None
        ctl = self.controller
        maxlen = ctl.config.history_window
        packed = state["histories"]
        owners = unpack_array(packed.get("owner"), "pabfd/histories/owner", "i").tolist()
        rows = split_rows(
            unpack_array(packed.get("count"), "pabfd/histories/count", "i"),
            unpack_array(packed.get("values"), "pabfd/histories/values", "f"),
            "pabfd/histories",
        )
        for pm_id, row in zip(owners, rows, strict=True):
            ctl._history[pm_id] = deque(row.tolist(), maxlen=maxlen)
        ctl._thresholds.clear()
        ctl.enabled = bool(state["enabled"])
        ctl.wake_ups = int(state["wake_ups"])
        ctl.switch_offs = int(state["switch_offs"])
        ctl._enabled_steps = int(state["rounds_seen"])
