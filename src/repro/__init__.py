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

from importlib import import_module

__version__ = "1.0.0"

#: Public name -> defining module.  Resolved on first access (PEP 562),
#: so ``import repro`` loads no submodule and a run loads only its own.
_EXPORTS = {
    "GlapConfig": "repro.core.glap",
    "GlapPolicy": "repro.core.glap",
    "QLearningConfig": "repro.core.qlearning",
    "QLearningModel": "repro.core.qlearning",
    "DataCenter": "repro.datacenter.cluster",
    "POLICY_NAMES": "repro.experiments.runner",
    "make_policy": "repro.experiments.runner",
    "run_policy": "repro.experiments.runner",
    "Scenario": "repro.experiments.scenarios",
    "paper_grid": "repro.experiments.scenarios",
    "scaled_grid": "repro.experiments.scenarios",
    "RunResult": "repro.metrics.report",
    "GoogleLikeTraceGenerator": "repro.traces.google",
    "GoogleTraceParams": "repro.traces.google",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value
