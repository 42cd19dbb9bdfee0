"""repro — a reproduction of GLAP (CLUSTER 2016).

GLAP: Distributed Dynamic Workload Consolidation through Gossip-Based
Learning (Khelghatdoust, Gramoli, Sun).

The package implements the paper's full system and evaluation stack:

* :mod:`repro.simulator` — a PeerSim-style cycle-driven P2P engine;
* :mod:`repro.overlay` — Cyclon membership + static overlays;
* :mod:`repro.datacenter` — PMs, VMs, power, live-migration cost model;
* :mod:`repro.traces` — Google-cluster-like workload generation;
* :mod:`repro.core` — GLAP itself: Q-learning states/rewards/tables,
  two-phase gossip learning, gossip consolidation;
* :mod:`repro.baselines` — GRMP, EcoCloud, PABFD, BFD packing;
* :mod:`repro.metrics` — SLAV, energy, consolidation metrics;
* :mod:`repro.experiments` — scenario grid, runner, figure/table drivers.

Quickstart::

    from repro import Scenario, make_policy, run_policy

    scenario = Scenario(n_pms=60, ratio=3, rounds=180, warmup_rounds=180)
    result = run_policy(scenario, make_policy("GLAP"), seed=1)
    print(result)
"""

from repro.core.glap import GlapConfig, GlapPolicy
from repro.core.qlearning import QLearningConfig, QLearningModel
from repro.datacenter.cluster import DataCenter
from repro.experiments.runner import (
    POLICY_NAMES,
    make_policy,
    run_policy,
)
from repro.experiments.scenarios import Scenario, paper_grid, scaled_grid
from repro.metrics.report import RunResult
from repro.traces.google import GoogleLikeTraceGenerator, GoogleTraceParams

__version__ = "1.0.0"

__all__ = [
    "GlapConfig",
    "GlapPolicy",
    "QLearningConfig",
    "QLearningModel",
    "DataCenter",
    "POLICY_NAMES",
    "make_policy",
    "run_policy",
    "Scenario",
    "paper_grid",
    "scaled_grid",
    "RunResult",
    "GoogleLikeTraceGenerator",
    "GoogleTraceParams",
    "__version__",
]
