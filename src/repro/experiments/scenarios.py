"""Experiment scenarios.

The paper's grid: data centres of 500, 1000, 2000 PMs; VM:PM ratios
2, 3, 4; 720 evaluation rounds of 2 simulated minutes (24 h); 700 extra
warmup rounds for GLAP's learning; 20 repetitions.

Running that grid for 4 policies is hours of CPU in pure Python, so
:func:`scaled_grid` provides a down-scaled sweep with the same *shape*
(3 sizes x 3 ratios) that finishes in minutes; EXPERIMENTS.md records
which scale produced the reported numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.faults.plan import FaultPlan
from repro.traces.google import GoogleTraceParams
from repro.util.validation import check_positive

__all__ = [
    "Scenario",
    "paper_grid",
    "scaled_grid",
    "chaos_variants",
    "PAPER_SIZES",
    "PAPER_RATIOS",
]

PAPER_SIZES: Tuple[int, ...] = (500, 1000, 2000)
PAPER_RATIOS: Tuple[int, ...] = (2, 3, 4)


@dataclass(frozen=True)
class Scenario:
    """One experimental configuration."""

    n_pms: int
    ratio: int
    rounds: int = 720
    warmup_rounds: int = 700
    round_seconds: float = 120.0
    repetitions: int = 20
    base_seed: int = 2016  # the venue year; any constant works
    trace_params: Optional[GoogleTraceParams] = None
    #: Fault schedule injected by the runner (None and a zero-fault plan
    #: are bit-identical — the chaos identity contract).  Faults never
    #: affect the generated trace or the initial placement, so faulted
    #: and clean variants of one scenario share cached traces.
    faults: Optional[FaultPlan] = None
    #: Attach an InvariantObserver that re-checks the data-centre
    #: conservation laws at the end of every round (warmup included).
    check_invariants: bool = False

    def __post_init__(self) -> None:
        check_positive(self.n_pms, "n_pms")
        check_positive(self.ratio, "ratio")
        check_positive(self.rounds, "rounds")
        check_positive(self.warmup_rounds, "warmup_rounds")
        check_positive(self.round_seconds, "round_seconds")
        check_positive(self.repetitions, "repetitions")

    @property
    def n_vms(self) -> int:
        return self.n_pms * self.ratio

    @property
    def total_rounds(self) -> int:
        return self.warmup_rounds + self.rounds

    def seed_of(self, repetition: int) -> int:
        """The root seed of one repetition (trace + placement + protocols)."""
        if repetition < 0:
            raise ValueError(f"repetition must be >= 0, got {repetition}")
        return self.base_seed + 1000 * repetition

    def label(self) -> str:
        """The paper's row key, e.g. ``"1000-3"``."""
        return f"{self.n_pms}-{self.ratio}"

    def scaled(self, factor: float) -> "Scenario":
        """A proportionally smaller scenario (same ratio and shape)."""
        check_positive(factor, "factor")
        return replace(self, n_pms=max(10, int(self.n_pms * factor)))

    def with_faults(
        self, plan: Optional[FaultPlan], *, check_invariants: bool = True
    ) -> "Scenario":
        """This scenario under a fault schedule (invariants on by default —
        a chaos run without its safety net proves nothing)."""
        return replace(self, faults=plan, check_invariants=check_invariants)


def paper_grid(**overrides) -> List[Scenario]:
    """The full 3 x 3 grid at paper scale."""
    return [
        Scenario(n_pms=size, ratio=ratio, **overrides)
        for size in PAPER_SIZES
        for ratio in PAPER_RATIOS
    ]


def scaled_grid(
    sizes: Tuple[int, ...] = (30, 60, 120),
    ratios: Tuple[int, ...] = PAPER_RATIOS,
    rounds: int = 180,
    warmup_rounds: int = 180,
    repetitions: int = 3,
    base_seed: int = 2016,
) -> List[Scenario]:
    """A laptop-scale sweep with the paper grid's shape.

    The trace's diurnal cycle is compressed to ``rounds`` so that both
    the warmup (where GLAP learns and PABFD collects history) and the
    evaluation each cover one full demand cycle — without a full cycle
    in warmup, GLAP's Q-tables never see peak-hour transitions and its
    headline advantage (predicting future overload) cannot materialise.
    """
    # Compress the diurnal cycle so a short run still sees a full
    # trough-to-peak swing — the dynamic that distinguishes the policies.
    params = GoogleTraceParams(rounds_per_day=max(2, min(rounds, warmup_rounds)))
    return [
        Scenario(
            n_pms=size,
            ratio=ratio,
            rounds=rounds,
            warmup_rounds=warmup_rounds,
            repetitions=repetitions,
            base_seed=base_seed,
            trace_params=params,
        )
        for size in sizes
        for ratio in ratios
    ]


def chaos_variants(
    scenario: Scenario,
    loss_levels: Sequence[float] = (0.0, 0.1, 0.3),
    churn_probability: float = 0.0,
    churn_downtime_rounds: int = 5,
    partition_window: Optional[Tuple[int, int]] = None,
    partition_groups: int = 2,
) -> List[Tuple[str, Scenario]]:
    """One (label, scenario) pair per fault level of a chaos sweep.

    Each variant layers the requested message-loss level, background
    churn and (optionally) a round-windowed partition onto ``scenario``
    with invariant checking enabled.  The partition splits node ids
    ``0..n_pms-1`` into ``partition_groups`` contiguous slices over the
    ``partition_window`` rounds (simulation rounds, warmup included).

    Variants are separate scenarios — run each through its own
    ``run_sweep`` call; their shared (scenario, seed) traces are reused
    from the sweep's trace cache, whose key never includes the fault
    plan.
    """
    variants: List[Tuple[str, Scenario]] = []
    for loss in loss_levels:
        plan = FaultPlan.message_loss(loss) if loss > 0.0 else FaultPlan.none()
        if churn_probability > 0.0:
            plan = plan.merged(
                FaultPlan.churn(
                    churn_probability, downtime_rounds=churn_downtime_rounds
                )
            )
        if partition_window is not None:
            start, end = partition_window
            step = max(1, scenario.n_pms // max(1, partition_groups))
            groups = [
                range(g * step, min((g + 1) * step, scenario.n_pms))
                for g in range(partition_groups)
            ]
            plan = plan.merged(
                FaultPlan.partition(groups, start_round=start, end_round=end)
            )
        variants.append((plan.describe(), scenario.with_faults(plan)))
    return variants
