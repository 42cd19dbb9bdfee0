"""Tests for repro.baselines.bfd — the Figure 6 packing baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bfd import _pack, _place, _validated, bfd_baseline_active_pms, bfd_pack

from tests._traced import traced_peak
from tests.baselines._scale_cell import end_of_run
from tests.conftest import make_constant_trace, make_datacenter

CAP = np.array([10.0, 10.0])


class TestBfdPack:
    def test_single_item(self):
        bins = bfd_pack(np.array([[5.0, 5.0]]), CAP)
        assert bins == [[0]]

    def test_perfect_fit(self):
        demands = np.array([[5.0, 5.0]] * 4)
        bins = bfd_pack(demands, CAP)
        assert len(bins) == 2

    def test_no_bin_overflows(self):
        rng = np.random.default_rng(0)
        demands = rng.uniform(0, 6, size=(30, 2))
        bins = bfd_pack(demands, CAP)
        for b in bins:
            total = demands[b].sum(axis=0)
            assert np.all(total <= CAP + 1e-9)

    def test_all_items_placed_exactly_once(self):
        rng = np.random.default_rng(1)
        demands = rng.uniform(0, 4, size=(25, 2))
        bins = bfd_pack(demands, CAP)
        placed = sorted(i for b in bins for i in b)
        assert placed == list(range(25))

    def test_two_dimensional_constraint_respected(self):
        # Items that fit by CPU but not memory must split bins.
        demands = np.array([[1.0, 9.0], [1.0, 9.0]])
        assert len(bfd_pack(demands, CAP)) == 2

    def test_oversized_item_gets_own_bin(self):
        demands = np.array([[15.0, 1.0], [1.0, 1.0]])
        bins = bfd_pack(demands, CAP)
        assert len(bins) == 2

    def test_better_than_naive_one_bin_per_item(self):
        rng = np.random.default_rng(2)
        demands = rng.uniform(0.5, 3.0, size=(40, 2))
        assert len(bfd_pack(demands, CAP)) < 40

    def test_within_approximation_bound_of_lower_bound(self):
        # FFD/BFD are 11/9 OPT + 1 for 1-D; use the volume lower bound as
        # a sanity envelope for the vector case.
        rng = np.random.default_rng(3)
        demands = rng.uniform(0.0, 5.0, size=(60, 2))
        bins = bfd_pack(demands, CAP)
        lower = max(
            np.ceil(demands[:, 0].sum() / CAP[0]),
            np.ceil(demands[:, 1].sum() / CAP[1]),
        )
        assert len(bins) <= 2 * lower + 1

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            bfd_pack(np.ones((3,)), CAP)
        with pytest.raises(ValueError):
            bfd_pack(np.ones((3, 2)), np.ones(3))

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            bfd_pack(np.array([[-1.0, 1.0]]), CAP)

    @pytest.mark.parametrize(
        "demands, capacity, where",
        [
            # ``nan < 0`` is false: a plain ``>= 0`` check lets it through.
            ([[1.0, 1.0], [np.nan, 1.0]], [10.0, 10.0], r"demands .*\[1, 0\]"),
            ([[1.0, np.inf]], [10.0, 10.0], r"demands .*\[0, 1\]"),
            # A zero capacity divides every slack by zero.
            ([[1.0, 1.0]], [0.0, 8.0], r"capacity .*\[0\]"),
            ([[1.0, 1.0]], [10.0, np.nan], r"capacity .*\[1\]"),
        ],
    )
    def test_inputs_the_index_cannot_order_are_rejected(self, demands, capacity, where):
        with pytest.raises(ValueError, match=where):
            bfd_pack(np.array(demands), np.array(capacity))

    @given(st.integers(min_value=1, max_value=30), st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_property_valid_packing(self, n_items, seed):
        rng = np.random.default_rng(seed)
        demands = rng.uniform(0, 8, size=(n_items, 2))
        bins = bfd_pack(demands, CAP)
        placed = sorted(i for b in bins for i in b)
        assert placed == list(range(n_items))
        for b in bins:
            if len(b) > 1:  # multi-item bins must respect capacity
                assert np.all(demands[b].sum(axis=0) <= CAP + 1e-9)


class TestBaselineActivePms:
    def test_counts_bins_for_datacenter(self):
        dc = make_datacenter(n_pms=10, n_vms=20)
        baseline = bfd_baseline_active_pms(dc)
        assert 1 <= baseline <= 20

    def test_constant_demand_exact(self):
        # 8 VMs at 50% CPU (250 MIPS): 2660//250 = 10 fit by CPU, memory
        # allows 4096 // (0.5*613) = 13; so one PM suffices for 8.
        trace = make_constant_trace(8, 4, cpu=0.5, mem=0.5)
        from repro.datacenter.cluster import DataCenter

        dc = DataCenter(8, 8, trace)
        dc.place_randomly(np.random.default_rng(0))
        dc.advance_round()
        assert bfd_baseline_active_pms(dc) == 1

    def test_baseline_never_above_vm_count(self):
        dc = make_datacenter(n_pms=10, n_vms=15)
        assert bfd_baseline_active_pms(dc) <= 15

    def test_mixed_capacities_are_refused_not_read_from_pm_0(self):
        dc = make_datacenter(n_pms=10, n_vms=20)
        dc.store.pm_cap[1] *= 2.0
        with pytest.raises(ValueError, match="PM 1 differs"):
            bfd_baseline_active_pms(dc)


@pytest.fixture(scope="module")
def scale_dc():
    """The ledger's scale cell at the end of its run: 80 000 VMs."""
    return end_of_run(20_000, 2016)


class TestSteadyAcrossTraceSeeds:
    """What sank the previous shortcut was a cost that swung 2x with the
    trace seed.  Asserted on counts the packing keeps, not on a clock:
    the ledger's scale cell at a tenth of its size, ten trace seeds."""

    #: Items that joined the top bin without the index: 60.7-70.2 % of
    #: the 8 000 on seeds 1-10, pinned with headroom.
    MIN_JOINED_SHARE = 0.5

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_bins_examined_and_fallbacks_bounded_on_every_seed(self, seed):
        from repro.experiments.runner import build_simulation, build_trace
        from repro.experiments.scenarios import Scenario
        from repro.traces.google import GoogleTraceParams

        scenario = Scenario(
            n_pms=2000, ratio=4, rounds=16, warmup_rounds=4, repetitions=1,
            trace_params=GoogleTraceParams(rounds_per_day=12),
        )
        dc, _, _ = build_simulation(scenario, seed, trace=build_trace(scenario, seed))
        for _ in range(scenario.total_rounds):
            dc.advance_round()
        demands, capacity = dc.vm_demand_matrix(), dc.store.pm_cap[0]
        bins, examined, fell_back, joined = _pack(demands, capacity)

        # The every-item scan looks at each bin once per item packed
        # after the item that opened it.
        n = len(demands)
        order = np.argsort(-(demands / capacity).sum(axis=1), kind="stable")
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        scan_examines = sum(n - 1 - int(rank[b[0]]) for b in bins)
        assert examined <= 0.15 * scan_examines
        assert fell_back <= 0.08 * n
        assert joined >= self.MIN_JOINED_SHARE * n

    def test_scale_cell_counts_are_pinned(self, scale_dc):
        # The packing the Figure 6 baseline makes at the ledger's scale
        # cell: any change to the paths must keep every count.
        demands, capacity = _validated(scale_dc.vm_demand_matrix(), scale_dc.store.pm_cap[0])
        _, placed, n_bins, examined, scanned, _ = _place(demands, capacity)
        assert (len(placed), n_bins, examined, scanned) == (80_000, 6_704, 24_183_372, 4_458)


class TestMemoryBound:
    """Past the sort the packing holds O(open bins) Python objects
    (DESIGN.md §5g), so on the ledger's scale cell (80 000 VMs, 6 704
    bins) its traced peak is its result plus a few columns per item.

    ``bfd_pack``'s peak measured 67 B per item: the returned bins are
    ~47 (each index an int object, 28 B, and a list slot, 8 B, plus list
    growth and headers), the order adds 8 and the bin of each item 8.
    ``bfd_baseline_active_pms`` builds no bins; it holds the demand
    matrix (16 B per item), the order and the two sorted demand columns
    (24), the bin of each item (8) and the per-bin state: 67 B measured.
    Both had 167-184 B per item when the whole demand columns and the
    order were Python lists."""

    #: Measured 67 for both, with 19 % headroom.
    BYTES_PER_ITEM = 80

    def test_bfd_pack_peak(self, scale_dc):
        demands = scale_dc.vm_demand_matrix()
        bins, peak = traced_peak(bfd_pack, demands, scale_dc.store.pm_cap[0])
        assert len(demands) == 80_000 and len(bins) == 6_704
        assert peak <= self.BYTES_PER_ITEM * len(demands)

    def test_baseline_count_peak(self, scale_dc):
        count, peak = traced_peak(bfd_baseline_active_pms, scale_dc)
        assert count == 6_704
        assert peak <= self.BYTES_PER_ITEM * scale_dc.n_vms
