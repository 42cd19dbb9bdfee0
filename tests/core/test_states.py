"""Tests for repro.core.states — the paper's 9-level calibration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.states import (
    N_LEVELS,
    N_STATES,
    UtilizationLevel,
    decode_state,
    encode_state,
    level_of,
    levels_of,
    state_code_fast,
    state_of_utilization,
)
from repro.core.consolidation import _state
from repro.datacenter.columnar import ColumnarStore
from repro.datacenter.resources import MachineSpec

from tests.conftest import observe


class TestLevelOf:
    # The paper's exact bucket boundaries (section IV-A).
    @pytest.mark.parametrize(
        "x,expected",
        [
            (0.0, UtilizationLevel.LOW),
            (0.2, UtilizationLevel.LOW),
            (0.2001, UtilizationLevel.MEDIUM),
            (0.4, UtilizationLevel.MEDIUM),
            (0.45, UtilizationLevel.HIGH),
            (0.5, UtilizationLevel.HIGH),
            (0.55, UtilizationLevel.XHIGH),
            (0.6, UtilizationLevel.XHIGH),
            (0.65, UtilizationLevel.XXHIGH),
            (0.7, UtilizationLevel.XXHIGH),
            (0.75, UtilizationLevel.XXXHIGH),
            (0.8, UtilizationLevel.XXXHIGH),
            (0.85, UtilizationLevel.XXXXHIGH),
            (0.9, UtilizationLevel.XXXXHIGH),
            (0.95, UtilizationLevel.XXXXXHIGH),
            (0.9999, UtilizationLevel.XXXXXHIGH),
            (1.0, UtilizationLevel.OVERLOAD),
            (1.7, UtilizationLevel.OVERLOAD),
        ],
    )
    def test_paper_boundaries(self, x, expected):
        assert level_of(x) is expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            level_of(-0.01)

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            level_of(float("nan"))
        with pytest.raises(ValueError):
            level_of(float("inf"))

    @given(st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
    @settings(max_examples=200)
    def test_property_monotone_and_total(self, x):
        lvl = level_of(x)
        assert 0 <= int(lvl) < N_LEVELS
        if x < 3.0:
            assert int(level_of(min(x + 0.01, 3.0))) >= int(lvl)


class TestEncoding:
    def test_constants(self):
        assert N_LEVELS == 9 and N_STATES == 81

    def test_roundtrip_all_codes(self):
        for code in range(N_STATES):
            assert encode_state(decode_state(code)) == code

    def test_paper_example_vm(self):
        # "a VM with average CPU and memory demand 0.85 and 0.56
        # respectively ... indicates an action (4xHigh, xHigh)".
        levels = levels_of(np.array([0.85, 0.56]))
        assert levels == (UtilizationLevel.XXXXHIGH, UtilizationLevel.XHIGH)

    def test_paper_example_pm_aggregate(self):
        # "...another VM with specification 0.1 and 0.2 then the PM's
        # state ... equals to (5xHigh, 3xHigh)" (0.95, 0.76 aggregated).
        levels = levels_of(np.array([0.85 + 0.1, 0.56 + 0.2]))
        assert levels == (UtilizationLevel.XXXXXHIGH, UtilizationLevel.XXXHIGH)

    def test_encode_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            encode_state((UtilizationLevel.LOW,))

    def test_decode_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            decode_state(81)
        with pytest.raises(ValueError):
            decode_state(-1)

    def test_fast_path_matches_generic(self):
        for u0 in np.linspace(0.0, 1.3, 27):
            for u1 in np.linspace(0.0, 1.3, 27):
                assert state_code_fast(float(u0), float(u1)) == state_of_utilization(
                    np.array([u0, u1])
                )

    @given(
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    )
    @settings(max_examples=100)
    def test_property_fast_path_equivalence(self, u0, u1):
        assert state_code_fast(u0, u1) == state_of_utilization(np.array([u0, u1]))


class TestMachineStates:
    """A PM's state and a VM's action as the store codes them (Alg. 3
    reads ``_state`` and the ``vm_action`` plane)."""

    def host(self, spec, *samples):
        """PM 0 of a store with ``spec``, hosting VM 1 observed at each
        ``(cpu, mem)`` of ``samples`` in turn."""
        store = ColumnarStore(1, 2, pm_spec=spec)
        for cpu, mem in samples:
            observe(store, 1, cpu, mem)
        store.add_member(0, 1)
        store.ensure_planes()
        return store

    def test_pm_state_uses_average_by_default(self):
        spec = MachineSpec(cpu_mips=1000.0, mem_mb=1226.0, bandwidth_mbps=1.0)
        store = self.host(spec, (0.2, 0.2), (1.0, 1.0))  # avg 0.6, current 1.0
        # average: 0.6*500/1000=0.3 (MEDIUM); 0.6*613/1226=0.3 (MEDIUM)
        assert decode_state(_state(store, 0)) == (
            UtilizationLevel.MEDIUM,
            UtilizationLevel.MEDIUM,
        )
        # current: 0.5 (HIGH, HIGH)
        assert decode_state(state_code_fast(*store.pm_utilization(0))) == (
            UtilizationLevel.HIGH,
            UtilizationLevel.HIGH,
        )

    def test_pm_state_overload_from_uncapped_demand(self):
        spec = MachineSpec(cpu_mips=400.0, mem_mb=500.0, bandwidth_mbps=1.0)
        store = self.host(spec, (1.0, 0.1))  # 500 MIPS demand on 400
        levels = decode_state(_state(store, 0))
        assert levels[0] is UtilizationLevel.OVERLOAD

    def test_vm_action_on_vm_scale(self):
        store = ColumnarStore(1, 2)
        observe(store, 1, 0.85, 0.56)
        store.ensure_planes()
        assert decode_state(store.vm_action[1]) == (
            UtilizationLevel.XXXXHIGH,
            UtilizationLevel.XHIGH,
        )

    def test_vm_action_current_variant(self):
        store = ColumnarStore(1, 2)
        observe(store, 1, 0.1, 0.1)
        observe(store, 1, 0.95, 0.95)
        cur = decode_state(int(store.vm_action_codes([1], use_average=False)[0]))
        assert cur == (UtilizationLevel.XXXXXHIGH, UtilizationLevel.XXXXXHIGH)
        avg = decode_state(int(store.vm_action_codes([1], use_average=True)[0]))  # mean 0.525
        assert avg == (UtilizationLevel.XHIGH, UtilizationLevel.XHIGH)
