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
from repro.datacenter.pm import PhysicalMachine
from repro.datacenter.power import LinearPowerModel
from repro.datacenter.vm import VirtualMachine
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
    """The central manager: global view, per-round consolidation pass."""

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
            pm.pm_id: deque(maxlen=config.history_window) for pm in dc.pms
        }
        self.enabled = False
        self.wake_ups = 0
        self.switch_offs = 0
        self._enabled_steps = 0

    # -- per-round hooks -------------------------------------------------------

    def record_histories(self) -> None:
        """Monitoring runs every round, even before consolidation starts."""
        for pm in self.dc.pms:
            if not pm.asleep:
                self._history[pm.pm_id].append(pm.cpu_utilization())

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
        return mad_upper_threshold(
            list(self._history[pm_id]),
            safety=self.config.safety,
            floor=self.config.threshold_floor,
        )

    # -- phase 1: overload detection + MMT selection -----------------------------------

    def _shed_overloaded(self) -> List[VirtualMachine]:
        shed: List[VirtualMachine] = []
        for pm in self.dc.active_pms():
            threshold = self.threshold_of(pm.pm_id)
            # ">=" matters: a host pinned at exactly 100% has MAD 0 and a
            # threshold of 1.0; strict ">" would never relieve it.
            if pm.cpu_utilization() < threshold:
                continue
            # Minimum Migration Time: smallest memory demand first.
            candidates = sorted(
                pm.vms, key=lambda v: (v.current_demand_abs()[1], v.vm_id)
            )
            projected = pm.cpu_utilization()
            evicted = 0
            for vm in candidates:
                if projected < threshold or evicted >= self.config.max_evictions_per_host:
                    break
                projected -= vm.cpu_demand_mips() / pm.spec.cpu_mips
                shed.append(vm)
                evicted += 1
        return shed

    # -- phase 2: power-aware BFD placement --------------------------------------------

    def _power_increase(self, pm: PhysicalMachine, vm: VirtualMachine) -> float:
        u_now = pm.cpu_utilization()
        u_after = min(1.0, u_now + vm.cpu_demand_mips() / pm.spec.cpu_mips)
        return self.power_model.power(u_after) - self.power_model.power(u_now)

    def _fits_below_threshold(self, pm: PhysicalMachine, vm: VirtualMachine) -> bool:
        if not pm.fits(vm):
            return False
        u_after = (
            sum(v.cpu_demand_mips() for v in pm.vms) + vm.cpu_demand_mips()
        ) / pm.spec.cpu_mips
        # Strictly below the threshold: filling to exactly 1.0 would
        # place the receiver straight into overload.
        return u_after < self.threshold_of(pm.pm_id)

    def _choose_host(
        self, vm: VirtualMachine, exclude: int
    ) -> Optional[PhysicalMachine]:
        best: Optional[Tuple[float, int]] = None
        for pm in self.dc.active_pms():
            if pm.pm_id == exclude:
                continue
            if self._fits_below_threshold(pm, vm):
                key = (self._power_increase(pm, vm), pm.pm_id)
                if best is None or key < best:
                    best = key
        return self.dc.pm(best[1]) if best is not None else None

    def _place(self, vms: List[VirtualMachine], sim: "Simulation") -> None:
        # Decreasing CPU demand — the "D" of PABFD.
        for vm in sorted(
            vms, key=lambda v: (-v.cpu_demand_mips(), v.vm_id)
        ):
            src = vm.host_id
            assert src is not None
            host = self._choose_host(vm, exclude=src)
            if host is None and self.config.allow_wake_ups:
                host = self._wake_one(sim)
            if host is not None and host.pm_id != src:
                self.dc.migrate(vm.vm_id, host.pm_id)
            # else: nowhere to go — the VM stays; the host remains overloaded.

    def _wake_one(self, sim: "Simulation") -> Optional[PhysicalMachine]:
        """Centralised privilege: reactivate one sleeping host."""
        for pm in self.dc.pms:
            if pm.asleep:
                pm.asleep = False
                sim.wake(pm.pm_id)
                self._history[pm.pm_id].clear()
                self.wake_ups += 1
                return pm
        return None

    # -- phase 3: underload draining ----------------------------------------------------

    def _drain_underloaded(self, sim: "Simulation") -> None:
        """Beloglazov's underload pass: repeatedly drain the least
        utilised host until a drain fails (no feasible full placement)."""
        drained: set = set()
        while True:
            active = [
                pm for pm in self.dc.active_pms()
                if not pm.is_empty and pm.pm_id not in drained
            ]
            if len(active) <= 1:
                return
            source = min(active, key=lambda pm: (pm.cpu_utilization(), pm.pm_id))
            if not self._drain_one(source, sim):
                return
            drained.add(source.pm_id)

    def _drain_one(self, source: PhysicalMachine, sim: "Simulation") -> bool:
        """Plan a full drain of ``source``; abort (placing nothing)
        unless every VM fits.  Returns True when the host was emptied."""
        plan: List[Tuple[int, int]] = []
        placed_load: Dict[int, float] = {}
        for vm in sorted(source.vms, key=lambda v: (-v.cpu_demand_mips(), v.vm_id)):
            host = self._choose_host_with_extra(vm, source.pm_id, placed_load)
            if host is None:
                return False
            plan.append((vm.vm_id, host.pm_id))
            placed_load[host.pm_id] = placed_load.get(host.pm_id, 0.0) + vm.cpu_demand_mips()
        for vm_id, host_id in plan:
            self.dc.migrate(vm_id, host_id)
        if source.is_empty:
            switch_off(self.dc, sim, source.pm_id)
            self.switch_offs += 1
            return True
        return False

    def _choose_host_with_extra(
        self, vm: VirtualMachine, exclude: int, placed_load: Dict[int, float]
    ) -> Optional[PhysicalMachine]:
        """Like _choose_host but accounts for load already planned onto
        hosts during this drain (the migrations have not executed yet)."""
        best: Optional[Tuple[float, int]] = None
        for pm in self.dc.active_pms():
            if pm.pm_id == exclude:
                continue
            extra = placed_load.get(pm.pm_id, 0.0)
            u_after = (
                sum(v.cpu_demand_mips() for v in pm.vms) + extra + vm.cpu_demand_mips()
            ) / pm.spec.cpu_mips
            mem_after = (
                pm.demand_vector()[1] + vm.current_demand_abs()[1]
            ) / pm.spec.mem_mb
            if u_after < self.threshold_of(pm.pm_id) and mem_after <= 1.0:
                key = (self._power_increase(pm, vm), pm.pm_id)
                if best is None or key < best:
                    best = key
        return self.dc.pm(best[1]) if best is not None else None


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
        ctl.enabled = bool(state["enabled"])
        ctl.wake_ups = int(state["wake_ups"])
        ctl.switch_offs = int(state["switch_offs"])
        ctl._enabled_steps = int(state["rounds_seen"])
