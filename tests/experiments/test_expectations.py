"""Tests for repro.experiments.expectations — paper data + shape checker."""

import numpy as np
import pytest

from repro.experiments.expectations import (
    PAPER_MIGRATION_REDUCTION,
    PAPER_OVERLOAD_REDUCTION,
    PAPER_OVERLOADED_FRACTION,
    PAPER_TABLE1,
    ShapeCheck,
    check_shape,
    format_shape_report,
)
from repro.experiments.parallel import SweepResults
from repro.experiments.scenarios import Scenario
from repro.metrics.report import RunResult


class TestPaperData:
    def test_table1_complete_grid(self):
        assert len(PAPER_TABLE1) == 9
        for row in PAPER_TABLE1.values():
            assert set(row) == {"GLAP", "EcoCloud", "GRMP", "PABFD"}

    def test_table1_paper_ordering_holds_in_paper_data(self):
        # Sanity on transcription: the paper's own claim GLAP < EcoCloud
        # < PABFD <= GRMP holds in (almost) all its rows.
        for label, row in PAPER_TABLE1.items():
            assert row["GLAP"] < row["EcoCloud"] <= row["PABFD"] <= row["GRMP"], label

    def test_reductions_are_fractions(self):
        for d in (PAPER_OVERLOAD_REDUCTION, PAPER_MIGRATION_REDUCTION):
            assert all(0 < v < 1 for v in d.values())

    def test_overloaded_fraction_ordering(self):
        f = PAPER_OVERLOADED_FRACTION
        assert f["GLAP"] < f["EcoCloud"] < f["PABFD"] < f["GRMP"]


def synthetic_sweep(per_policy: dict) -> SweepResults:
    """Build a fake sweep where each policy has fixed metric values."""
    scenario = Scenario(n_pms=10, ratio=2, rounds=4, warmup_rounds=4,
                        repetitions=1)
    sweep = SweepResults(scenarios=[scenario],
                         policies=tuple(per_policy.keys()))
    for policy, (overl_frac, migrations, slav, energy) in per_policy.items():
        r = RunResult(policy=policy, n_pms=10, n_vms=20, rounds=4, seed=0)
        r.series = {
            "overloaded_fraction": np.full(4, overl_frac),
            "overloaded": np.full(4, overl_frac * 10),
            "active": np.full(4, 8.0),
        }
        r.total_migrations = migrations
        r.slav = slav
        r.migration_energy_j = energy
        sweep.runs[(scenario.label(), policy)] = [r]
    return sweep


GOOD = {
    "GLAP": (0.05, 100, 1e-8, 500.0),
    "EcoCloud": (0.15, 150, 1e-7, 900.0),
    "GRMP": (0.40, 200, 3e-7, 1200.0),
    "PABFD": (0.35, 400, 2e-7, 2000.0),
}


class TestCheckShape:
    def test_paper_shape_recognised(self):
        checks = check_shape(synthetic_sweep(GOOD))
        assert all(c.holds for c in checks)

    def test_inverted_shape_flagged(self):
        bad = dict(GOOD)
        bad["GLAP"] = (0.9, 999, 1e-5, 99999.0)  # GLAP suddenly the worst
        checks = check_shape(synthetic_sweep(bad))
        assert not all(c.holds for c in checks)

    def test_report_format(self):
        checks = check_shape(synthetic_sweep(GOOD))
        text = format_shape_report(checks)
        assert "Paper-shape report" in text
        assert "qualitative claims hold" in text
        assert "[OK ]" in text

    def test_report_marks_diffs(self):
        bad = dict(GOOD)
        bad["GLAP"] = (0.9, 999, 1e-5, 99999.0)
        text = format_shape_report(check_shape(synthetic_sweep(bad)))
        assert "[DIFF]" in text
