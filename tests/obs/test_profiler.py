"""Tests for repro.obs.profiler — spans, nesting, wall-time accounting."""

import time
from types import SimpleNamespace

from repro.experiments.runner import make_policy, run_policy
from repro.experiments.scenarios import Scenario
from repro.obs import profiler as profiler_module
from repro.obs.profiler import NULL_PROFILER, NullProfiler, PhaseProfiler, PhaseStats
from repro.simulator.network import Network


class TestNullProfiler:
    def test_disabled_and_shared_span(self):
        assert NULL_PROFILER.enabled is False
        # The no-op span is shared: entering it allocates nothing.
        assert NULL_PROFILER.phase("a") is NULL_PROFILER.phase("b")

    def test_span_is_a_context_manager(self):
        with NullProfiler().phase("anything"):
            pass


class TestPhaseProfiler:
    def test_accumulates_totals_and_calls(self):
        prof = PhaseProfiler()
        assert prof.enabled is True
        for _ in range(3):
            with prof.phase("learning"):
                pass
        with prof.phase("metrics"):
            pass
        breakdown = prof.breakdown()
        assert breakdown["learning"]["calls"] == 3
        assert breakdown["metrics"]["calls"] == 1
        assert breakdown["learning"]["total_s"] >= 0.0

    def test_nested_phases_do_not_double_count_top_level(self):
        prof = PhaseProfiler()
        with prof.phase("outer"):
            with prof.phase("inner"):
                time.sleep(0.02)
        bd = prof.breakdown()
        # Inclusive per-phase times: inner is contained in outer.
        assert bd["outer"]["total_s"] >= bd["inner"]["total_s"]
        # But the top-level figure counts the outer span only once.
        assert prof.top_level_s < bd["outer"]["total_s"] + bd["inner"]["total_s"]
        assert abs(prof.top_level_s - bd["outer"]["total_s"]) < 1e-9

    def test_top_level_total_tracks_wall_time(self):
        """The acceptance contract: summed depth-0 spans ~= measured wall
        time of the instrumented region."""
        prof = PhaseProfiler()
        t0 = time.perf_counter()
        for _ in range(5):
            with prof.phase("a"):
                time.sleep(0.004)
            with prof.phase("b"):
                with prof.phase("b/inner"):
                    time.sleep(0.004)
        wall = time.perf_counter() - t0
        assert prof.top_level_s <= wall + 1e-6
        # Everything inside the loop is instrumented, so the profiler
        # should explain the overwhelming share of the wall time.
        assert prof.top_level_s > 0.8 * wall

    def test_items_sorted_by_descending_time(self):
        prof = PhaseProfiler()
        with prof.phase("short"):
            pass
        with prof.phase("long"):
            time.sleep(0.01)
        assert [name for name, _ in prof.items()][0] == "long"

    def test_format_lists_every_phase(self):
        prof = PhaseProfiler()
        with prof.phase("gossip"):
            pass
        text = prof.format()
        assert "gossip" in text and "top-level total" in text

    def test_format_empty(self):
        assert "no phases" in PhaseProfiler().format()

    def test_exception_inside_span_still_recorded(self):
        prof = PhaseProfiler()
        try:
            with prof.phase("risky"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert prof.breakdown()["risky"]["calls"] == 1
        assert prof._stack == []  # the span stack unwinds even on error

    def test_self_time_excludes_children(self):
        prof = PhaseProfiler()
        with prof.phase("outer"):
            time.sleep(0.004)
            with prof.phase("inner"):
                time.sleep(0.01)
        bd = prof.breakdown()
        assert bd["inner"]["parent"] == "outer"
        assert "parent" not in bd["outer"]
        assert (
            abs(
                bd["outer"]["self_s"]
                - (bd["outer"]["total_s"] - bd["inner"]["total_s"])
            )
            < 1e-9
        )


class TestFormatLayout:
    """Pins the report layout: tree indentation, %parent column,
    siblings in descending self-time order (satellite of ISSUE 10)."""

    def _scripted_profiler(self, monkeypatch) -> PhaseProfiler:
        # Two rounds of round > (gossip, metrics) under a scripted clock,
        # so every number is deterministic.
        ticks = iter([0, 0, 3, 3, 4, 4, 10, 10, 13, 13, 14, 14])
        monkeypatch.setattr(
            profiler_module,
            "time",
            SimpleNamespace(perf_counter=lambda: float(next(ticks))),
        )
        prof = PhaseProfiler()
        for _ in range(2):
            with prof.phase("round"):
                with prof.phase("gossip"):
                    pass
                with prof.phase("metrics"):
                    pass
        return prof

    def test_exact_layout(self, monkeypatch):
        assert self._scripted_profiler(monkeypatch).format() == "\n".join(
            [
                "phase                   total        self     calls  %parent",
                "round                  8.000s      0.000s         2  100.0%",
                "  gossip               6.000s      6.000s         2   75.0%",
                "  metrics              2.000s      2.000s         2   25.0%",
                "(top-level total)      8.000s",
            ]
        )

    def test_siblings_sorted_by_self_time(self, monkeypatch):
        text = self._scripted_profiler(monkeypatch).format()
        assert text.index("gossip") < text.index("metrics")

    def test_children_indented_under_parent(self, monkeypatch):
        lines = self._scripted_profiler(monkeypatch).format().splitlines()
        assert any(line.startswith("round") for line in lines)
        assert any(line.startswith("  gossip") for line in lines)

    def test_unrecorded_parent_roots_the_phase(self):
        prof = PhaseProfiler()
        with prof.phase("still_open"):
            with prof.phase("orphan"):
                pass
            lines = prof.format().splitlines()
        assert any(line.startswith("orphan") for line in lines)

    def test_live_spans_show_percent_of_top_level(self):
        prof = PhaseProfiler()
        with prof.phase("a"):
            time.sleep(0.002)
        row = next(
            line for line in prof.format().splitlines() if line.startswith("a")
        )
        assert row.rstrip().endswith("%")


def test_phase_stats_dict_shape():
    stats = PhaseStats("x")
    stats.total_s, stats.self_s, stats.calls = 1.5, 1.0, 2
    assert stats.as_dict() == {"total_s": 1.5, "self_s": 1.0, "calls": 2}
    stats.parent = "p"
    assert stats.as_dict()["parent"] == "p"


class TestProfiledRunTimesTheUnprofiledPath:
    def test_profiled_run_never_delivers_message_by_message(self, monkeypatch):
        """A profiler times the code an unprofiled run executes, and no
        more: on a lossless, unpartitioned, unobserved network every
        exchange is counted without building its two messages."""
        calls = []
        deliver = Network.deliver
        monkeypatch.setattr(
            Network, "deliver", lambda self, msg: calls.append(msg) or deliver(self, msg)
        )
        profiler = PhaseProfiler()
        scenario = Scenario(n_pms=12, ratio=2, rounds=4, warmup_rounds=4)
        run_policy(scenario, make_policy("GRMP"), 1, profiler=profiler)
        assert calls == []
        assert profiler.breakdown()["gossip"]["calls"] == scenario.total_rounds
        assert "network_delivery" not in profiler.breakdown()
