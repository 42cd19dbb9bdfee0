"""Tests for repro.experiments.figures — the drivers that regenerate
every paper artefact (run at toy scale)."""

import numpy as np
import pytest

from repro.experiments.figures import (
    figure5_convergence,
    figure6_overload_fraction,
    figure7_overloaded_pms,
    figure8_migrations,
    figure9_cumulative_migrations,
    figure10_energy_overhead,
    format_figure5,
    format_figure6,
    format_figure9,
    format_figure10,
    format_percentile_rows,
    format_table1,
    table1_sla,
)
from repro.experiments.parallel import run_sweep
from repro.experiments.scenarios import Scenario
from repro.traces.google import GoogleTraceParams

TOY = Scenario(
    n_pms=10,
    ratio=2,
    rounds=10,
    warmup_rounds=10,
    repetitions=2,
    trace_params=GoogleTraceParams(rounds_per_day=10),
)


@pytest.fixture(scope="module")
def sweep():
    # GRMP + PABFD only: cheap, still exercises multi-policy paths.
    return run_sweep([TOY], policies=("GRMP", "PABFD"))


class TestRunSweep:
    def test_all_combinations_present(self, sweep):
        assert set(sweep.runs.keys()) == {("10-2", "GRMP"), ("10-2", "PABFD")}
        assert all(len(v) == 2 for v in sweep.runs.values())

    def test_of_lookup(self, sweep):
        assert len(sweep.of(TOY, "GRMP")) == 2
        with pytest.raises(KeyError):
            sweep.of(TOY, "GLAP")


class TestFigure6(object):
    def test_rows_complete(self, sweep):
        rows = figure6_overload_fraction(sweep)
        assert len(rows) == 2
        for row in rows:
            assert 0 <= row["overloaded_fraction"] <= 1
            assert row["mean_active"] > 0
            assert row["bfd_baseline"] > 0

    def test_format(self, sweep):
        text = format_figure6(figure6_overload_fraction(sweep))
        assert "Figure 6" in text and "GRMP" in text


class TestFigures78(object):
    def test_percentile_rows(self, sweep):
        rows = figure7_overloaded_pms(sweep)
        for row in rows:
            assert row["p10"] <= row["median"] <= row["p90"]

    def test_migrations_rows(self, sweep):
        rows = figure8_migrations(sweep)
        assert {r["policy"] for r in rows} == {"GRMP", "PABFD"}

    def test_format(self, sweep):
        text = format_percentile_rows(figure7_overloaded_pms(sweep), "Figure 7")
        assert "median" in text


class TestFigure9(object):
    def test_curves_monotone(self, sweep):
        curves = figure9_cumulative_migrations(sweep)
        assert set(curves.keys()) == {(2, "GRMP"), (2, "PABFD")}
        for curve in curves.values():
            assert len(curve) == TOY.rounds
            assert np.all(np.diff(curve) >= 0)  # cumulative

    def test_missing_size_rejected(self, sweep):
        with pytest.raises(ValueError):
            figure9_cumulative_migrations(sweep, n_pms=9999)

    def test_format(self, sweep):
        text = format_figure9(figure9_cumulative_migrations(sweep))
        assert "Figure 9" in text


class TestFigure10(object):
    def test_rows(self, sweep):
        rows = figure10_energy_overhead(sweep)
        for row in rows:
            assert row["p10_j"] <= row["median_j"] <= row["p90_j"]
            assert row["median_j"] >= 0

    def test_format(self, sweep):
        text = format_figure10(figure10_energy_overhead(sweep))
        assert "Figure 10" in text


class TestTable1(object):
    def test_rows(self, sweep):
        rows = table1_sla(sweep)
        assert len(rows) == 1
        assert rows[0]["scenario"] == "10-2"
        assert "GRMP" in rows[0] and "PABFD" in rows[0]

    def test_format(self, sweep):
        text = format_table1(table1_sla(sweep), ("GRMP", "PABFD"))
        assert "Table I" in text and "10-2" in text


FIG5_TOY = Scenario(
    n_pms=10,
    ratio=2,
    rounds=5,
    warmup_rounds=16,
    repetitions=1,
    trace_params=GoogleTraceParams(rounds_per_day=16),
)


def _figure5_series(scenario):
    from repro.core.glap import GlapConfig

    # Default GLAP aggregation_rounds=30 exceeds warmup; shrink.
    data = figure5_convergence(
        scenario, ratios=(2,), sample_every=2,
        glap_config=GlapConfig(aggregation_rounds=6),
    )
    return data, data[2]


class TestFigure5(object):
    def test_convergence_structure(self):
        data, series = _figure5_series(FIG5_TOY)
        assert len(series["round"]) == len(series["similarity"])
        assert "learn" in series["phase"] and "aggregate" in series["phase"]
        assert all(0.0 <= s <= 1.0 for s in series["similarity"])
        # Aggregation must improve similarity over end-of-learning (WG > WOG).
        learn_last = [s for s, p in zip(series["similarity"], series["phase"])
                      if p == "learn"][-1]
        agg_last = [s for s, p in zip(series["similarity"], series["phase"])
                    if p == "aggregate"][-1]
        assert agg_last >= learn_last
        text = format_figure5(data)
        assert "Figure 5" in text

    def test_fault_free_series_is_pinned(self):
        """Bit-exact floats of the fault-free warm-up: running it through
        the runner's set-up and round body changed no draw."""
        _, series = _figure5_series(FIG5_TOY)
        assert series["round"] == [0, 2, 4, 6, 8, 10, 12, 14, 15]
        # policy.phase is the phase of the round just run: LEARN through
        # round 8, AGGREGATE from round 9 (16 warm-up - 6 - 1).
        assert series["phase"] == ["learn"] * 5 + ["aggregate"] * 4
        assert [s.hex() for s in series["similarity"]] == [
            "0x1.dcbdc6968ab06p-3",
            "0x1.87b5f0ec5ca1cp-4",
            "0x1.4fb1b9e3020b0p-3",
            "0x1.ed0dce5d85e26p-3",
            "0x1.0f8926b255dfap-2",
            "0x1.cc33126414635p-1",
            "0x1.ff8f230bbe7a1p-1",
            "0x1.fffdc4ace9535p-1",
            "0x1.ffff94a615669p-1",
        ]

    def test_scenario_faults_reach_the_warmup(self):
        """A lossy scenario draws a different curve: its faults (and its
        invariant checks) are not dropped on the way to the round body."""
        from dataclasses import replace

        from repro.faults import FaultPlan

        _, clean = _figure5_series(FIG5_TOY)
        _, lossy = _figure5_series(
            replace(FIG5_TOY, faults=FaultPlan.message_loss(0.5), check_invariants=True)
        )
        assert lossy["round"] == clean["round"]
        assert lossy["similarity"] != clean["similarity"]
