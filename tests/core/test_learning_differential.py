"""Differential suite: Algorithm 1 as draw loop + deferred whole-array
flush (``repro.core.learning.LocalTrainer``) against the scalar loop it
replaced (``tests/core/_reference_learning.py``), which here runs on the
dict table of ``_reference_qtable.py`` — so trainer *and* table are
compared against code that shares nothing with the batched path.

A *script* is a sequence of training rounds over a small pool of models
(empty, warm, and warm copies sharing copy-on-write storage), each round
with its own base profiles.  The reference runs the rounds one after the
other, a fresh scalar trainer per round as the protocol used to; the
batched side collects them through one trainer under some chunking —
flush after every round, flush once at the end, or a scratch so small
that the chunk fills in the middle of a round.  Whatever the chunking,
everything observable must agree **bit for bit**: both Q-maps of every
model (keys and ``float.hex`` values), the ``(old, new)`` pair of every
update, the TD sums, the returned counts, and the generator's state.

The sender size ``k_s`` comes from a Python scan of running sums where
the oracle ``searchsorted``s an accumulated peak, so a fixed corpus sits
on the scan's edges: pools whose peak never reaches ``u_s`` (the
``n - 1`` cap; all-zero pools), ``n = 2``, demands on level thresholds,
and a first prefix sum on ``u_s`` or one double below it.  Four mutants
of the draw loop must be caught by it: ``>`` for ``>=``, the cap tested
after the add, the span written ``1.15`` for ``1.3 - 0.15``, and the
per-row lists extended per iteration drawn instead of per chunk written.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import learning
from repro.core.learning import LocalTrainer, VmProfile, _profile_rows
from repro.core.qlearning import QLearningModel
from repro.core.qtable import QTable
from repro.datacenter.resources import EC2_MICRO, HP_PROLIANT_ML110_G5
from tests._mutants import mutant_function, replace_once
from tests.core._reference_learning import ReferenceLocalTrainer
from tests.core._reference_qtable import ReferenceQTable

PM_CAP = HP_PROLIANT_ML110_G5.capacity_vector()
VM_CAP = EC2_MICRO.capacity_vector()
N_MODELS = 3
#: Seed of both generators of every script.
SEED = 99

# Demand fractions on the VM's own scale: idle VMs, bucket edges, VMs
# heavy in one resource only, and anything in between.
fractions = st.one_of(
    st.sampled_from([0.0, 0.2, 0.4, 0.5, 0.9, 1.0, 0.9000000000000001]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=0.02, allow_nan=False),
)
# Demands that are small multiples of 5 % of the *PM*: group sums land on
# the level thresholds up to rounding, so a re-associated sum or a
# comparison on the wrong side of an edge changes a state code.
_STEP = 0.05 * PM_CAP / VM_CAP
edge_cpu = st.integers(0, 3).map(lambda q: q * float(_STEP[0]))
edge_mem = st.integers(0, 2).map(lambda q: q * float(_STEP[1]))
vm_rows = st.one_of(
    st.tuples(fractions, fractions, fractions, fractions),
    st.tuples(edge_cpu, edge_mem, edge_cpu, edge_mem),
    st.tuples(st.just(0.0), st.just(0.0), st.just(0.0), st.just(0.0)),
    # single-resource-heavy: cpu-bound, then memory-bound
    st.tuples(st.floats(0.8, 1.0), st.floats(0.0, 0.02), st.floats(0.8, 1.0), st.floats(0.0, 0.02)),
    st.tuples(st.floats(0.0, 0.02), st.floats(0.8, 1.0), st.floats(0.0, 0.02), st.floats(0.8, 1.0)),
)
pools = st.lists(vm_rows, min_size=1, max_size=40)
rounds = st.lists(st.tuples(st.integers(0, N_MODELS - 1), pools), min_size=1, max_size=6)
trainer_knobs = st.tuples(
    st.integers(1, 7),                                # iterations_per_round
    st.sampled_from([0.0001, 0.3, 2.0, 40.0]),        # coverage_target
    st.sampled_from([1, 2, 5, 30, 256]),              # max_profiles (1: n < 2)
)
#: flush after every round / once at the end / scratch of this many cells.
chunkings = st.sampled_from(["each", "end", 64, 600])


def _profiles(rows) -> List[VmProfile]:
    return [
        VmProfile(
            current_abs=np.array([cur_cpu, cur_mem]) * VM_CAP,
            average_abs=np.array([avg_cpu, avg_mem]) * VM_CAP,
            spec_capacity=VM_CAP,
        )
        for avg_cpu, avg_mem, cur_cpu, cur_mem in rows
    ]


def _warm_pair(seed: int) -> Tuple[QLearningModel, QLearningModel]:
    """The same few dozen entries as a packed model and as a dict one."""
    new, ref = QLearningModel(), QLearningModel()
    ref.q_out, ref.q_in = ReferenceQTable(), ReferenceQTable()
    rng = np.random.default_rng(seed)
    for name in ("q_out", "q_in"):
        for _ in range(40):
            state, action = (int(x) for x in rng.integers(0, 30, 2))
            value = float(rng.normal())
            getattr(new, name).set(state, action, value)
            getattr(ref, name).set(state, action, value)
    return new, ref


def _model_pool(kinds: Tuple[str, ...]):
    """Packed models and their dict twins; "shared" models are copies of
    one warm model, i.e. hold the *same* arrays until one is trained."""
    shared_new, shared_ref = _warm_pair(7)
    new, ref = [], []
    for i, kind in enumerate(kinds):
        if kind == "empty":
            a, b = QLearningModel(), QLearningModel()
            b.q_out, b.q_in = ReferenceQTable(), ReferenceQTable()
        elif kind == "warm":
            a, b = _warm_pair(100 + i)
        else:
            a, b = shared_new.copy(), QLearningModel()
            b.q_out, b.q_in = shared_ref.q_out.copy(), shared_ref.q_in.copy()
        new.append(a)
        ref.append(b)
    return new, ref


def _hex_items(table) -> Dict[Tuple[int, int], str]:
    return {key: float(value).hex() for key, value in table.items()}


def _hex_pairs(pairs) -> List[Tuple[str, str]]:
    return [(float(old).hex(), float(new).hex()) for old, new in pairs]


class _Ledger:
    td_error_abs = 0.0
    td_updates = 0


def _run_script(script, knobs, kinds, chunking, monkeypatch, trainer_cls=LocalTrainer) -> None:
    k, coverage, max_profiles = knobs
    new_models, ref_models = _model_pool(kinds)

    # The oracle: one fresh scalar trainer per round, TD sums folded into
    # the ledger the way GossipLearningProtocol.execute_round used to.
    ref_rng, want = np.random.default_rng(SEED), _Ledger()
    want_counts, want_pairs = [], {i: ([], []) for i in range(N_MODELS)}
    for target, rows in script:
        trainer = ReferenceLocalTrainer(
            ref_models[target], PM_CAP, ref_rng, iterations_per_round=k,
            coverage_target=coverage, max_profiles=max_profiles, track_td=True,
        )
        trainer.sent = trainer.accepted = []
        want_counts.append(trainer.train_round(_profiles(rows)))
        want.td_error_abs += trainer.td_abs_sum
        want.td_updates += trainer.td_updates
        want_pairs[target][0].extend(trainer.sent)
        want_pairs[target][1].extend(trainer.accepted)

    if isinstance(chunking, int):
        monkeypatch.setattr(learning, "_CHUNK_CELLS", chunking)
    got_pairs: Dict[int, list] = {}
    real = QTable.update_columns

    def spy(table, *columns):
        pairs = real(table, *columns)
        got_pairs.setdefault(id(table), []).extend(pairs)
        return pairs

    monkeypatch.setattr(QTable, "update_columns", spy)
    new_rng, got = np.random.default_rng(SEED), _Ledger()
    trainer = trainer_cls(
        None, PM_CAP, new_rng, iterations_per_round=k,
        coverage_target=coverage, max_profiles=max_profiles, ledger=got,
    )
    got_counts = []
    for target, rows in script:
        got_counts.append(
            trainer.collect(new_models[target], *_profile_rows(_profiles(rows)), track_td=True)
        )
        if chunking == "each":
            trainer.flush()
    trainer.flush()
    trainer.flush()  # nothing pending: a no-op

    assert got_counts == want_counts
    assert new_rng.bit_generator.state == ref_rng.bit_generator.state
    for i, (new, ref) in enumerate(zip(new_models, ref_models)):
        assert _hex_items(new.q_out) == _hex_items(ref.q_out)
        assert _hex_items(new.q_in) == _hex_items(ref.q_in)
        assert _hex_pairs(got_pairs.get(id(new.q_out), [])) == _hex_pairs(want_pairs[i][0])
        assert _hex_pairs(got_pairs.get(id(new.q_in), [])) == _hex_pairs(want_pairs[i][1])
    assert got.td_error_abs.hex() == want.td_error_abs.hex()
    assert got.td_updates == want.td_updates


model_kinds = st.tuples(*[st.sampled_from(["empty", "warm", "shared"])] * N_MODELS)


@settings(max_examples=120, deadline=None)
@given(rounds, trainer_knobs, model_kinds, chunkings)
def test_batched_rounds_match_the_scalar_reference(script, knobs, kinds, chunking):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _run_script(script, knobs, kinds, chunking, monkeypatch)


@pytest.mark.slow
@settings(max_examples=700, deadline=None)
@given(rounds, trainer_knobs, model_kinds, chunkings)
def test_batched_rounds_match_the_scalar_reference_deep(script, knobs, kinds, chunking):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _run_script(script, knobs, kinds, chunking, monkeypatch)


@pytest.mark.parametrize("chunking", ["each", "end", 64])
def test_paper_sized_rounds_match_under_every_chunking(chunking):
    """k = 20 over pools the size a real exchange pulls (4-14 VMs,
    duplicated to 30-150), many rounds per model: the regime the ledger
    runs, where chunks fill between and inside rounds."""
    rng = np.random.default_rng(5)
    script = [
        (int(rng.integers(N_MODELS)), rng.uniform(0.02, 0.6, (int(rng.integers(4, 15)), 4)).tolist())
        for _ in range(40)
    ]
    with pytest.MonkeyPatch.context() as monkeypatch:
        _run_script(script, (20, 2.0, 256), ("empty", "warm", "shared"), chunking, monkeypatch)


@pytest.mark.parametrize("seed", range(4))
def test_group_sums_on_the_level_edges_match(seed):
    """Paper-sized rounds over demands that are multiples of 5 % of the
    PM: most group sums sit on a level threshold up to rounding, where
    any re-association of the deferred arithmetic (``a - b + c`` for
    ``a - (b - c)``, a rebased prefix for a fresh one) flips a code."""
    rng = np.random.default_rng(seed)
    script = [
        (
            int(rng.integers(N_MODELS)),
            (rng.integers(0, [4, 3, 4, 3], (int(rng.integers(3, 12)), 4)) * np.tile(_STEP, 2)).tolist(),
        )
        for _ in range(12)
    ]
    with pytest.MonkeyPatch.context() as monkeypatch:
        _run_script(script, (20, 2.0, 256), ("empty", "warm", "shared"), "end", monkeypatch)


def test_train_round_is_collect_one_then_flush():
    """The public entry point trains ``self.model`` and leaves nothing pending."""
    rows = np.random.default_rng(3).uniform(0.05, 0.9, (9, 4)).tolist()
    new, ref = _warm_pair(1)
    got = LocalTrainer(new, PM_CAP, np.random.default_rng(4), track_td=True)
    want = ReferenceLocalTrainer(ref, PM_CAP, np.random.default_rng(4), track_td=True)
    for _ in range(3):
        assert got.train_round(_profiles(rows)) == want.train_round(_profiles(rows)) == 20
        assert not got._k_s and not got._rounds and got._used == 0
    assert _hex_items(new.q_out) == _hex_items(ref.q_out)
    assert _hex_items(new.q_in) == _hex_items(ref.q_in)
    assert got.td_updates == want.td_updates == 120


# -- the k_s scan at its edges ------------------------------------------------

KINDS = ("empty", "warm", "shared")
CHUNKINGS = ("each", "end", 64)


def _fraction_on(target: float, plane: int) -> Optional[float]:
    """The VM fraction whose pool fraction, ``frac * VM_CAP / PM_CAP`` as
    both trainers compute it, is exactly ``target`` (None if the rounding
    skips it)."""
    vm, pm = float(VM_CAP[plane]), float(PM_CAP[plane])
    frac = target * pm / vm
    for _ in range(16):
        got = frac * vm / pm
        if got == target:
            return frac
        frac = float(np.nextafter(frac, np.inf if got < target else -np.inf))
    return None


def _tie_script(plane: int, below: bool):
    """``n`` equal profiles and no duplication (``max_profiles`` n): the
    first prefix sum of the first iteration *is* the ``u_s`` that
    iteration draws, or the double just below it.  ``n`` is the first
    pool size whose ``u_s`` a profile can land on."""
    for n in range(4, 40):
        rng = np.random.default_rng(SEED)
        rng.permutation(n)
        u_s = rng.uniform(0.15, 1.3)
        frac = _fraction_on(float(np.nextafter(u_s, 0.0)) if below else u_s, plane)
        if frac is not None:
            row = [0.0, 0.0, 0.3, 0.3]
            row[plane] = frac
            return [(0, [row] * n)], (3, 2.0, n)
    raise AssertionError("no pool size puts a profile on u_s")


def _scan_edges():
    rng = np.random.default_rng(26)

    def script(rows):
        return [(int(rng.integers(N_MODELS)), rows()) for _ in range(8)]

    # Peaks far below the smallest u_s: every iteration stops at the cap.
    yield "cap", script(
        lambda: rng.uniform(0.0, 0.02, (int(rng.integers(2, 9)), 4)).tolist()
    ), (20, 2.0, 8)
    yield "zeros", script(lambda: [[0.0] * 4] * int(rng.integers(1, 6))), (20, 2.0, 30)
    # One or two profiles, pooled to n = 2: the cap is where the scan starts.
    yield "n2", script(
        lambda: rng.uniform(0.0, 1.0, (int(rng.integers(1, 3)), 4)).tolist()
    ), (20, 2.0, 2)
    yield "edges", script(
        lambda: (rng.integers(0, [4, 3, 4, 3], (int(rng.integers(3, 12)), 4))
                 * np.tile(_STEP, 2)).tolist()
    ), (20, 2.0, 256)
    for plane in (0, 1):
        yield (f"on_u_s_{plane}", *_tie_script(plane, below=False))
        yield (f"below_u_s_{plane}", *_tie_script(plane, below=True))


#: name -> (script, knobs): rounds at the edges of the k_s scan.
SCAN_EDGES = {name: (script, knobs) for name, script, knobs in _scan_edges()}


@pytest.mark.parametrize("chunking", CHUNKINGS)
@pytest.mark.parametrize("name", sorted(SCAN_EDGES))
def test_scan_edges_match(name, chunking):
    script, knobs = SCAN_EDGES[name]
    with pytest.MonkeyPatch.context() as monkeypatch:
        _run_script(script, knobs, KINDS, chunking, monkeypatch)


@pytest.mark.parametrize("name", sorted(SCAN_EDGES))
def test_scan_edges_reach_their_edge(name):
    """Each case stops the scan where its name says, so a change to the
    corpus cannot quietly stop exercising that edge."""
    script, (k, coverage, max_profiles) = SCAN_EDGES[name]
    trainer = LocalTrainer(
        None, PM_CAP, np.random.default_rng(SEED), iterations_per_round=k,
        coverage_target=coverage, max_profiles=max_profiles,
    )
    for _, rows in script:
        trainer.collect(QLearningModel(), *_profile_rows(_profiles(rows)))
    sizes, widths = trainer._k_s, trainer._width
    if name in ("cap", "zeros", "n2"):
        assert sizes == [w - 1 for w in widths]
        assert (set(widths) == {2}) == (name == "n2")
    elif name.startswith("on_u_s"):
        assert sizes[0] == 1
    elif name.startswith("below_u_s"):
        assert sizes[0] == 2


# -- mutants of the draw loop ---------------------------------------------------

# The source each mutant edits (``collect``, dedented), pinned verbatim: an
# edit that no longer applies fails loudly instead of passing for the
# wrong reason.
STOP = "            if a0 >= u_s or a1 >= u_s:\n"
SCAN = (
    "            if k_s == cap:\n"
    "                break\n"
    "            a0 += avg0[i]\n"
    "            a1 += avg1[i]\n"
    "            if a0 >= u_s or a1 >= u_s:\n"
    "                break\n"
    "            k_s += 1\n"
)
SPAN = "(1.3 - 0.15)"
ROW_LISTS = "    perms, sizes, bounds, picks0, picks1, picked = [], [], [], [], [], []\n"
ROW_EXTENDS = (
    "        self._k_s.extend(sizes[chunk])\n"
    "        self._u_t.extend(bounds[chunk])\n"
    "        for column, values in zip(self._pick, (picks0, picks1, picked)):\n"
    "            column.extend(values[chunk])\n"
)


MUTANTS = {
    # Killed by on_u_s_*: a prefix sum equal to u_s no longer stops the scan.
    "stop_on_greater": lambda s: replace_once(s, STOP, STOP.replace(">=", ">")),
    # Killed by n2: the scan starts at the cap, so testing it only after
    # the add lets k_s reach n.
    "cap_after_the_add": lambda s: replace_once(
        s, SCAN, SCAN[SCAN.index("            a0"):] + SCAN[:SCAN.index("            a0")]
    ),
    # Killed by below_u_s_*: 1.15 is one double below 1.3 - 0.15.
    "span_as_literal": lambda s: replace_once(s, SPAN, "1.15"),
    # Killed by a 64-cell scratch (zeros, n2, edges, cap): a round that
    # straddles a flush hands it the lists of rows not yet written.
    "row_lists_per_iteration": lambda s: replace_once(
        replace_once(s, ROW_EXTENDS, ""),
        ROW_LISTS,
        "    perms, sizes, bounds, (picks0, picks1, picked) = [], self._k_s, self._u_t, self._pick\n",
    ),
}


def mutant(edit):
    """A ``LocalTrainer`` whose ``collect`` is recompiled from its source
    after ``edit``."""
    collect = mutant_function(LocalTrainer.collect, edit)
    return type("MutantTrainer", (LocalTrainer,), {"collect": collect})


def _survives(trainer_cls) -> bool:
    for name in sorted(SCAN_EDGES):
        script, knobs = SCAN_EDGES[name]
        for chunking in CHUNKINGS:
            try:
                with pytest.MonkeyPatch.context() as monkeypatch:
                    _run_script(script, knobs, KINDS, chunking, monkeypatch, trainer_cls)
            except (AssertionError, IndexError, ValueError):
                return False
    return True


class TestScanMutantsAreCaught:
    def test_unmutated_source_survives_the_edges(self):
        assert _survives(mutant(lambda source: source + "\n"))

    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_mutant_diverges_on_the_edges(self, name):
        assert not _survives(mutant(MUTANTS[name]))
