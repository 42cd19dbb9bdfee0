"""Tests for repro.core.qlearning — paired model and policies."""

import pytest

from repro.core.qlearning import QLearningConfig, QLearningModel
from repro.core.rewards import RewardIn, RewardOut
from repro.core.states import UtilizationLevel, encode_state


def code(a, b):
    return encode_state((UtilizationLevel(a), UtilizationLevel(b)))


class TestConfig:
    def test_defaults_valid(self):
        cfg = QLearningConfig()
        assert 0 < cfg.alpha <= 1
        assert 0 <= cfg.gamma < 1

    def test_zero_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            QLearningConfig(alpha=0.0)

    def test_gamma_one_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            QLearningConfig(gamma=1.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            QLearningConfig(alpha=1.2)


class TestUpdates:
    def test_update_out_uses_out_rewards(self):
        model = QLearningModel(QLearningConfig(alpha=1.0, gamma=0.0))
        light = code(0, 0)
        value = model.update_out(code(5, 5), code(1, 1), light)
        assert value == pytest.approx(model.config.reward_out.of_state(light))

    def test_update_in_negative_on_overload(self):
        model = QLearningModel(QLearningConfig(alpha=1.0, gamma=0.0))
        overload = code(8, 8)
        value = model.update_in(code(5, 5), code(1, 1), overload)
        assert value < 0

    def test_updates_touch_separate_tables(self):
        model = QLearningModel()
        model.update_out(code(1, 1), code(0, 0), code(0, 0))
        assert len(model.q_out) == 1 and len(model.q_in) == 0
        model.update_in(code(1, 1), code(0, 0), code(2, 2))
        assert len(model.q_in) == 1


class TestPiOut:
    def test_picks_best_known_action(self):
        model = QLearningModel()
        s = code(3, 3)
        model.q_out.set(s, code(1, 1), 5.0)
        model.q_out.set(s, code(2, 2), 9.0)
        assert model.pi_out(s, [code(1, 1), code(2, 2)]) == code(2, 2)

    def test_restricted_to_available(self):
        # The formula's "a in V_p(t)": the best global action is ignored
        # when no hosted VM has it.
        model = QLearningModel()
        s = code(3, 3)
        model.q_out.set(s, code(2, 2), 9.0)
        model.q_out.set(s, code(1, 1), 5.0)
        assert model.pi_out(s, [code(1, 1)]) == code(1, 1)

    def test_empty_availability_none(self):
        assert QLearningModel().pi_out(code(1, 1), []) is None


class TestPiIn:
    def test_accepts_non_negative(self):
        model = QLearningModel()
        model.q_in.set(code(2, 2), code(1, 1), 0.0)
        assert model.pi_in(code(2, 2), code(1, 1)) is True

    def test_rejects_negative(self):
        # Paper: "If the Q-value ... is less than zero, the suggested VM
        # is rejected otherwise accepted."
        model = QLearningModel()
        model.q_in.set(code(2, 2), code(1, 1), -0.001)
        assert model.pi_in(code(2, 2), code(1, 1)) is False

    def test_unknown_pair_accepts(self):
        assert QLearningModel().pi_in(code(2, 2), code(1, 1)) is True


class TestMergeAndCopy:
    def test_merge_combines_both_tables(self):
        a, b = QLearningModel(), QLearningModel()
        a.q_out.set(0, 0, 2.0)
        b.q_out.set(0, 0, 4.0)
        b.q_in.set(1, 1, -3.0)
        a.merge(b)
        assert a.q_out.get(0, 0) == 3.0
        assert a.q_in.get(1, 1) == -3.0

    def test_copy_deep(self):
        a = QLearningModel()
        a.q_out.set(0, 0, 1.0)
        c = a.copy()
        c.q_out.set(0, 0, 9.0)
        assert a.q_out.get(0, 0) == 1.0
        assert c.config is a.config  # config is immutable, shared is fine

    def test_total_entries(self):
        m = QLearningModel()
        m.q_out.set(0, 0, 1.0)
        m.q_in.set(0, 0, 1.0)
        m.q_in.set(0, 1, 1.0)
        assert m.total_entries() == 3
