"""The paired (Q_out, Q_in) model and the action-selection policies.

Each PM carries one :class:`QLearningModel`: the ``phi_out`` map ranks
which VM (action) to evict from a given PM state; the ``phi_in`` map
predicts whether accepting a VM would drive the recipient into overload
now or later (negative value = reject), per section IV-A.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.qtable import QTable
from repro.core.rewards import RewardIn, RewardOut
from repro.util.io import atomic_write_json
from repro.util.validation import check_fraction

__all__ = ["QLearningConfig", "QLearningModel"]


@dataclass(frozen=True)
class QLearningConfig:
    """Hyper-parameters of the learning system.

    alpha:
        Learning rate in (0, 1]; the paper notes values < 1 blend the
        latest observation with history (stochastic environment), so the
        default is well below 1.
    gamma:
        Discount factor in [0, 1); > 0 is what makes Q_in predictive of
        *future* overload rather than only the immediate transition.
    """

    alpha: float = 0.5
    gamma: float = 0.8
    reward_out: RewardOut = field(default_factory=RewardOut)
    reward_in: RewardIn = field(default_factory=RewardIn)

    def __post_init__(self) -> None:
        check_fraction(self.alpha, "alpha")
        if self.alpha == 0.0:
            raise ValueError("alpha must be > 0 (0 would never learn)")
        check_fraction(self.gamma, "gamma")
        if self.gamma == 1.0:
            raise ValueError("gamma must be < 1 for bounded Q-values")


class QLearningModel:
    """Per-PM learned knowledge: the ``phi_out`` and ``phi_in`` maps."""

    __slots__ = ("config", "q_out", "q_in")

    def __init__(self, config: Optional[QLearningConfig] = None) -> None:
        self.config = config if config is not None else QLearningConfig()
        self.q_out = QTable()
        self.q_in = QTable()

    # -- training updates ---------------------------------------------------

    def update_out(self, state: int, action: int, next_state: int) -> float:
        """Sender-side update: reward follows the reward-*out* schedule of
        the state the sender lands in after evicting the VM."""
        reward = self.config.reward_out.of_state(next_state)
        return self.q_out.update(
            state, action, reward, next_state, self.config.alpha, self.config.gamma
        )

    def update_in(self, state: int, action: int, next_state: int) -> float:
        """Recipient-side update: reward-*in* of the post-acceptance state."""
        reward = self.config.reward_in.of_state(next_state)
        return self.q_in.update(
            state, action, reward, next_state, self.config.alpha, self.config.gamma
        )

    # -- policies (section IV-A, "Optimal Action Selection") ---------------------

    def pi_out(self, state: int, available_actions: List[int]) -> Optional[int]:
        """``argmax_a phi_out(state, a)`` over the actions of the VMs
        actually present (``a in V_p(t)``); None when the PM is empty."""
        return self.q_out.best_action(state, candidates=available_actions)

    def pi_in(self, dst_state: int, action: int) -> bool:
        """Accept (True) iff ``phi_in(dst_state, action) >= 0``.

        Unknown pairs default to 0, i.e. accept: with no evidence of
        danger the PM stays avaricious — matching the paper's rule that
        only a *negative* learned value rejects.
        """
        return self.q_in.get(dst_state, action, default=0.0) >= 0.0

    # -- aggregation support --------------------------------------------------------

    def merge(self, other: "QLearningModel") -> None:
        """Algorithm 2's UPDATE over the union map ``phi_io``.

        The union map is phi_in U phi_out; since the two live in separate
        tables keyed identically, merging table-wise is equivalent.
        """
        self.q_out.merge(other.q_out)
        self.q_in.merge(other.q_in)

    def copy(self) -> "QLearningModel":
        out = QLearningModel(self.config)
        out.q_out = self.q_out.copy()
        out.q_in = self.q_in.copy()
        return out

    def total_entries(self) -> int:
        return len(self.q_out) + len(self.q_in)

    # -- persistence ----------------------------------------------------------------
    #
    # Section IV-D: "consolidation component can be configured to either
    # continue using the previous Q-values or pause ... and resume by
    # using new Q-values" — previous Q-values must therefore be storable.

    def to_dict(self) -> Dict:
        return {"q_out": self.q_out.to_dict(), "q_in": self.q_in.to_dict()}

    @classmethod
    def from_dict(cls, data: Dict, config: Optional[QLearningConfig] = None
                  ) -> "QLearningModel":
        unknown = set(data) - {"q_out", "q_in"}
        if unknown:
            raise ValueError(f"unknown model fields: {sorted(unknown)}")
        out = cls(config)
        out.q_out = QTable.from_dict(data.get("q_out", {}))
        out.q_in = QTable.from_dict(data.get("q_in", {}))
        return out

    def save(self, path: Union[str, Path]) -> None:
        """Write the learned Q-maps to a JSON file (atomically).

        A crash mid-write must never leave a truncated model on disk —
        Q-maps are the durable state section IV-D's pause/resume relies
        on — so the write goes through the tmp-then-rename helper.
        """
        atomic_write_json(self.to_dict(), path)

    @classmethod
    def load(cls, path: Union[str, Path],
             config: Optional[QLearningConfig] = None) -> "QLearningModel":
        """Read Q-maps written by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text()), config)

    def __repr__(self) -> str:
        return f"QLearningModel(out={len(self.q_out)}, in={len(self.q_in)})"
