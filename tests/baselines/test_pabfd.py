"""Tests for repro.baselines.pabfd — the centralised controller."""

import numpy as np
import pytest

from repro.baselines.pabfd import PabfdConfig, PabfdController, PabfdPolicy
from repro.datacenter.cluster import DataCenter
from repro.simulator.engine import Simulation
from repro.simulator.node import Node
from repro.traces.base import ArrayTrace
from repro.util.rng import RngStreams

from tests.conftest import make_constant_trace, make_datacenter, make_simulation, overloaded


def build(n_pms=4, n_vms=8, cpu=0.3, mem=0.1, placement=None, config=None):
    trace = make_constant_trace(n_vms, 40, cpu=cpu, mem=mem)
    dc = DataCenter(n_pms, n_vms, trace)
    dc.apply_placement(placement or [i % n_pms for i in range(n_vms)])
    dc.advance_round()
    controller = PabfdController(dc, config or PabfdConfig(control_period_rounds=1))
    controller.enabled = True
    nodes = [Node(i) for i in range(dc.n_pms)]
    sim = Simulation(nodes, np.random.default_rng(0))
    return dc, sim, controller


class TestConfig:
    def test_defaults_match_beloglazov(self):
        cfg = PabfdConfig()
        assert cfg.safety == 2.58
        assert cfg.allow_wake_ups is False  # the paper's PABFD cannot reopen hosts

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            PabfdConfig(control_period_rounds=0)


class TestThresholds:
    def test_no_history_threshold_one(self):
        dc, _, controller = build()
        fresh = PabfdController(dc, PabfdConfig())
        assert fresh.threshold_of(0) == 1.0

    def test_history_recorded_even_when_disabled(self):
        dc, sim, controller = build()
        controller.enabled = False
        for _ in range(5):
            dc.advance_round()
            controller.step(sim)
        assert len(controller._history[0]) >= 5

    def test_stable_history_gives_high_threshold(self):
        dc, sim, controller = build(cpu=0.3)
        for _ in range(10):
            dc.advance_round()
            controller.step(sim)
        assert controller.threshold_of(0) > 0.9


class TestOverloadHandling:
    def test_overloaded_host_sheds_vms(self):
        dc, sim, controller = build(
            n_pms=2, n_vms=7, cpu=0.9, mem=0.05, placement=[0] * 6 + [1]
        )
        for _ in range(6):
            dc.advance_round()
            controller.step(sim)
        assert not overloaded(dc, 0)
        assert dc.migration_count() > 0

    def test_mmt_selection_smallest_memory_first(self):
        data = make_constant_trace(6, 20, cpu=0.9, mem=0.5).data.copy()
        data[0, :, 1] = 0.05  # VM 0 is the cheapest to move
        trace = ArrayTrace(data)
        dc = DataCenter(2, 6, trace)
        dc.apply_placement([0, 0, 0, 0, 0, 1])
        dc.advance_round()
        controller = PabfdController(dc, PabfdConfig(control_period_rounds=1))
        controller.enabled = True
        sim = Simulation(
            [Node(i) for i in range(dc.n_pms)], np.random.default_rng(0)
        )
        for _ in range(4):
            dc.advance_round()
            controller.step(sim)
        if dc.migrations:
            assert dc.migrations[0].vm_id == 0


class TestUnderloadDraining:
    def test_drains_least_utilized_host(self):
        dc, sim, controller = build(
            n_pms=3, n_vms=7, cpu=0.2, mem=0.1, placement=[0, 0, 0, 1, 1, 1, 2]
        )
        for _ in range(10):
            dc.advance_round()
            controller.step(sim)
        assert dc.active_count() < 3
        assert controller.switch_offs >= 1

    def test_drain_aborts_when_nothing_fits(self):
        # Each host at ~0.56 CPU: a full drain would push the receiver to
        # ~1.13 — impossible, so neither host may be emptied.
        dc, sim, controller = build(
            n_pms=2, n_vms=8, cpu=0.75, mem=0.2, placement=[0] * 4 + [1] * 4
        )
        for _ in range(10):
            dc.advance_round()
            controller.step(sim)
        assert dc.active_count() == 2

    def test_iterative_drain_can_close_multiple_hosts(self):
        dc, sim, controller = build(
            n_pms=4, n_vms=4, cpu=0.1, mem=0.05, placement=[0, 1, 2, 3]
        )
        for _ in range(10):
            dc.advance_round()
            controller.step(sim)
        assert dc.active_count() == 1


class TestControlPeriod:
    def test_no_action_between_control_points(self):
        dc, sim, controller = build(
            n_pms=3, n_vms=6, cpu=0.2, mem=0.1,
            config=PabfdConfig(control_period_rounds=5),
        )
        for _ in range(4):
            dc.advance_round()
            controller.step(sim)
        assert dc.migration_count() == 0
        dc.advance_round()
        controller.step(sim)  # 5th step: control point
        assert dc.migration_count() > 0


class TestWakeUps:
    def test_wake_up_when_allowed_and_needed(self):
        dc, sim, controller = build(
            n_pms=3, n_vms=12, cpu=0.9, mem=0.1, placement=[0] * 6 + [1] * 6,
            config=PabfdConfig(control_period_rounds=1, allow_wake_ups=True),
        )
        dc.store.pm_asleep[2] = True
        sim.node(2).sleep()
        for _ in range(5):
            dc.advance_round()
            controller.step(sim)
        assert controller.wake_ups >= 1
        assert not dc.store.pm_asleep[2]

    def test_no_wake_up_by_default(self):
        dc, sim, controller = build(
            n_pms=3, n_vms=12, cpu=0.9, mem=0.1, placement=[0] * 6 + [1] * 6,
        )
        dc.store.pm_asleep[2] = True
        sim.node(2).sleep()
        for _ in range(5):
            dc.advance_round()
            controller.step(sim)
        assert controller.wake_ups == 0
        assert dc.store.pm_asleep[2]


class TestPolicy:
    def test_attach_creates_controller_without_node_protocols(self):
        dc = make_datacenter()
        sim = make_simulation(dc)
        policy = PabfdPolicy()
        policy.attach(dc, sim, RngStreams(0), warmup_rounds=5)
        assert policy.controller is not None
        assert all(len(n.protocols) == 0 for n in sim.nodes)

    def test_step_requires_attach(self):
        policy = PabfdPolicy()
        with pytest.raises(AssertionError):
            policy.step(None, None)

    def test_end_warmup_enables(self):
        dc = make_datacenter()
        sim = make_simulation(dc)
        policy = PabfdPolicy()
        policy.attach(dc, sim, RngStreams(0), warmup_rounds=5)
        policy.end_warmup(dc, sim)
        assert policy.controller.enabled
