"""GLAP — the paper's primary contribution.

The core package implements section IV of the paper:

* :mod:`~repro.core.states` — calibration of PM/VM load into the 9-level
  per-resource scale, and the (state, action) encoding;
* :mod:`~repro.core.rewards` — the two incentive systems, reward *out*
  (empty PMs fast) and reward *in* (predict and refuse future overload);
* :mod:`~repro.core.qtable` — sparse state-action value maps with the
  Q-learning update and the gossip merge;
* :mod:`~repro.core.qlearning` — the paired (Q_out, Q_in) model and the
  action-selection policies pi_out / pi_in;
* :mod:`~repro.core.learning` — Algorithm 1, the local training phase;
* :mod:`~repro.core.aggregation` — Algorithm 2, the gossip averaging;
* :mod:`~repro.core.consolidation` — Algorithm 3, gossip consolidation;
* :mod:`~repro.core.glap` — wiring of all components onto a simulation;
* :mod:`~repro.core.convergence` — Figure 5 / Theorem 1 instrumentation.
"""
