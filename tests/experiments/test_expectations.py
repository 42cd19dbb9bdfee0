"""Tests for repro.experiments.expectations — paper data + shape checker."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.glap import GlapConfig
from repro.experiments.expectations import (
    PAPER_MIGRATION_REDUCTION,
    PAPER_OVERLOAD_REDUCTION,
    PAPER_OVERLOADED_FRACTION,
    PAPER_TABLE1,
    ShapeCheck,
    check_shape,
    format_shape_report,
)
from repro.experiments.figures import EXHIBITS, figure5_convergence
from repro.experiments.parallel import SweepResults, run_sweep
from repro.experiments.scenarios import Scenario, scaled_grid
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


FRONT = (0.6, 0.9, 1.0, 1.0)   # cumulative share of migrations per round
LINEAR = (0.25, 0.5, 0.75, 1.0)

#: Per-policy values of a synthetic sweep in the paper's shape.  A
#: policy's migrations, SLAV and energy are multiplied by ``growth`` at
#: each higher ratio.
GOOD = {
    "GLAP": dict(overloaded=0.05, migrations=100, slav=1e-8, energy=500.0, curve=FRONT),
    "EcoCloud": dict(overloaded=0.15, migrations=150, slav=1e-7, energy=900.0, curve=FRONT),
    "GRMP": dict(overloaded=0.40, migrations=200, slav=3e-7, energy=1200.0, curve=FRONT),
    "PABFD": dict(overloaded=0.35, migrations=400, slav=2e-7, energy=2000.0, curve=LINEAR),
}
WORST_GLAP = dict(overloaded=0.9, migrations=999, slav=1e-5, energy=99999.0)


def synthetic_sweep(per_policy: dict, ratios=(2, 3)) -> SweepResults:
    """Build a fake sweep where each policy has fixed metric values
    (``GOOD``'s keys, plus ``active`` PMs, ``bfd`` and ``growth``)."""
    scenarios = [Scenario(n_pms=10, ratio=ratio, rounds=4, warmup_rounds=4, repetitions=1)
                 for ratio in ratios]
    sweep = SweepResults(scenarios=scenarios, policies=tuple(per_policy.keys()))
    for step, scenario in enumerate(scenarios):
        for policy, v in per_policy.items():
            scale = v.get("growth", 1.5) ** step
            r = RunResult(policy=policy, n_pms=10, n_vms=10 * scenario.ratio, rounds=4,
                          seed=0, bfd_baseline_pms=v.get("bfd", 4))
            r.series = {
                "overloaded_fraction": np.full(4, v["overloaded"]),
                "overloaded": np.full(4, v["overloaded"] * 10),
                "active": np.full(4, v.get("active", 8.0)),
                "cumulative_migrations": v["migrations"] * scale * np.array(v["curve"]),
            }
            r.total_migrations = int(v["migrations"] * scale)
            r.slav = v["slav"] * scale
            r.migration_energy_j = v["energy"] * scale
            sweep.runs[(scenario.label(), policy)] = [r]
    return sweep


def synthetic_convergence(wog=0.4, wg=0.99, phases=("learn", "learn", "aggregate", "aggregate")):
    """Fig. 5 data: every ratio's similarity ends its learning phase at
    ``wog`` and its aggregation phase at ``wg``."""
    similarity = [0.1, wog, 0.8, wg][: len(phases)]
    return {ratio: {"round": [0, 5, 10, 15][: len(phases)], "similarity": similarity,
                    "phase": list(phases)}
            for ratio in (2, 3, 4)}


def with_glap(**override) -> dict:
    return {**GOOD, "GLAP": {**GOOD["GLAP"], **override}}


#: Per exhibit, a sweep and Fig. 5 data on which every claim about that
#: exhibit misses.
INVERTED = {
    "5": lambda: (synthetic_sweep(GOOD), synthetic_convergence(wog=0.99, phases=("learn", "learn"))),
    "6": lambda: (synthetic_sweep(with_glap(overloaded=0.9, active=12.0)), synthetic_convergence()),
    "7": lambda: (synthetic_sweep(with_glap(overloaded=0.9)), synthetic_convergence()),
    "8": lambda: (synthetic_sweep({p: {**v, "growth": 0.5} for p, v in with_glap(migrations=999).items()}),
                  synthetic_convergence()),
    "9": lambda: (synthetic_sweep({**with_glap(curve=LINEAR),
                                   "GRMP": {**GOOD["GRMP"], "curve": LINEAR},
                                   "PABFD": {**GOOD["PABFD"], "curve": FRONT}}),
                  synthetic_convergence()),
    "10": lambda: (synthetic_sweep({**with_glap(energy=99999.0),
                                    "EcoCloud": {**GOOD["EcoCloud"], "energy": -10.0}}),
                   synthetic_convergence()),
    "table1": lambda: (synthetic_sweep(with_glap(slav=1e-5, growth=0.1)), synthetic_convergence()),
    "shape": lambda: (synthetic_sweep(with_glap(**WORST_GLAP)), synthetic_convergence()),
}


class TestCheckShape:
    def test_paper_shape_recognised(self):
        checks = check_shape(synthetic_sweep(GOOD), synthetic_convergence())
        assert all(c.holds for c in checks), format_shape_report(checks)
        assert {c.exhibit for c in checks} == set(EXHIBITS) | {"shape"}

    def test_inverted_shape_flagged(self):
        checks = check_shape(synthetic_sweep(with_glap(**WORST_GLAP)))  # GLAP suddenly the worst
        assert not all(c.holds for c in checks)

    @pytest.mark.parametrize("exhibit", INVERTED)
    def test_inverted_exhibit_misses_every_claim(self, exhibit):
        checks = check_shape(*INVERTED[exhibit]())
        about = [c for c in checks if c.exhibit == exhibit]
        assert about and not any(c.holds for c in about), format_shape_report(about)

    def test_inputs_not_given_are_left_out(self):
        assert {c.exhibit for c in check_shape(convergence=synthetic_convergence())} == {"5"}
        assert "5" not in {c.exhibit for c in check_shape(synthetic_sweep(GOOD))}
        assert check_shape() == []

    def test_report_format(self):
        checks = check_shape(synthetic_sweep(GOOD), synthetic_convergence())
        text = format_shape_report(checks)
        assert "Paper-shape report" in text
        assert "qualitative claims hold" in text
        assert "[OK ] Fig. 5: " in text and "[OK ] Table I: " in text
        assert all(c.claim in text for c in checks)

    def test_report_marks_diffs(self):
        text = format_shape_report(check_shape(synthetic_sweep(with_glap(**WORST_GLAP))))
        assert "[DIFF] report: " in text


ZERO_RIVAL_CLAIMS = (
    "GLAP reduces overloaded PMs vs PABFD",
    "GLAP has over 30% fewer overloaded PMs per round than each rival",
)


class TestRivalWithoutOverloads:
    """A rival with no overloaded PMs leaves GLAP nothing to reduce: the
    overload-reduction claims hold against it only if GLAP has none
    either (a small sweep measured PABFD 0.0 %, GLAP 9.7 %)."""

    def claims(self, glap: float, pabfd: float):
        sweep = synthetic_sweep(
            {**with_glap(overloaded=glap), "PABFD": {**GOOD["PABFD"], "overloaded": pabfd}}
        )
        return {c.claim: c for c in check_shape(sweep) if c.claim in ZERO_RIVAL_CLAIMS}

    def test_glap_above_a_zero_rival_misses_both_claims(self):
        claims = self.claims(glap=0.097, pabfd=0.0)
        assert set(claims) == set(ZERO_RIVAL_CLAIMS)
        assert not any(c.holds for c in claims.values()), format_shape_report(list(claims.values()))
        assert all("-inf%" in c.measured for c in claims.values())

    def test_glap_at_zero_too_holds_both_claims(self):
        claims = self.claims(glap=0.0, pabfd=0.0)
        assert set(claims) == set(ZERO_RIVAL_CLAIMS)
        assert all(c.holds for c in claims.values()), format_shape_report(list(claims.values()))


class TestRegistry:
    """Every exhibit's driver, formatter and claims on a small real sweep."""

    SCENARIOS = scaled_grid(sizes=(10,), ratios=(2, 3), rounds=10, warmup_rounds=35,
                            repetitions=1)

    @pytest.fixture(scope="class")
    def sweep(self):
        return run_sweep(self.SCENARIOS, jobs=1)

    @pytest.fixture(scope="class")
    def convergence(self):
        return figure5_convergence(replace(self.SCENARIOS[0], warmup_rounds=20),
                                   glap_config=GlapConfig(aggregation_rounds=10))

    @pytest.mark.parametrize("exhibit", list(EXHIBITS))
    def test_driver_formatter_claims(self, exhibit, sweep, convergence):
        entry = EXHIBITS[exhibit]
        data = convergence if exhibit == "5" else entry.driver(sweep)
        title = "Table I" if exhibit == "table1" else f"Figure {exhibit} "
        assert entry.formatter(data).startswith(title)
        checks = check_shape(sweep, convergence)
        about = [c for c in checks if c.exhibit == exhibit]
        assert about and all(isinstance(c.holds, bool) for c in about)
        assert all(c.claim in format_shape_report(checks) for c in about)

    def test_stems_name_the_committed_results(self):
        results = Path(__file__).resolve().parents[2] / "benchmarks" / "results"
        for entry in EXHIBITS.values():
            for scale in ("quick", "default"):
                assert (results / f"{entry.stem}_{scale}.txt").is_file(), entry.stem
