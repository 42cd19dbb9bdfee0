"""Tests for repro.simulator.network — accounting and loss injection."""

import numpy as np
import pytest

from repro.simulator.network import Message, Network, NetworkStats


class TestLosslessDelivery:
    def test_deliver_returns_true(self):
        net = Network()
        assert net.deliver(Message(0, 1, "k")) is True

    def test_counts_messages_and_bytes(self):
        net = Network()
        net.deliver(Message(0, 1, "a", size_bytes=10))
        net.deliver(Message(1, 0, "b", size_bytes=32))
        assert net.stats.messages_sent == 2
        assert net.stats.bytes_sent == 42
        assert net.stats.messages_dropped == 0

    def test_per_kind_counters(self):
        net = Network()
        for _ in range(3):
            net.deliver(Message(0, 1, "cyclon/shuffle"))
        net.deliver(Message(0, 1, "glap/state"))
        assert net.stats.per_kind["cyclon/shuffle"] == 3
        assert net.stats.per_kind["glap/state"] == 1

    def test_exchange_ok_counts_request_and_reply(self):
        net = Network()
        assert net.exchange_ok(0, 1, "x", size_bytes=5)
        assert net.stats.messages_sent == 2
        assert net.stats.bytes_sent == 10
        assert set(net.stats.per_kind) == {"x/req", "x/rep"}

    def test_direct_pair_accounting_equals_message_by_message(self):
        # With nothing that can drop or watch a message, exchange_ok
        # counts the pair without building it; an observer forces the
        # per-message path.  Same totals, same keys in the same order.
        direct, observed = Network(), Network()
        seen = []
        observed.observer = lambda msg, dropped: seen.append((msg, dropped))
        for net in (direct, observed):
            state = net._rng.bit_generator.state
            assert net.exchange_ok(0, 1, "cyclon/shuffle", size_bytes=128)
            assert net.exchange_ok(2, 3, "glap/aggregate", req_bytes=36, rep_bytes=60)
            assert net.exchange_ok(1, 0, "cyclon/shuffle", size_bytes=128)
            assert net._rng.bit_generator.state == state
        assert direct.state_dict() == observed.state_dict()
        assert list(direct.stats.per_kind) == list(observed.stats.per_kind)
        assert list(direct.stats.delivered_per_kind) == list(
            observed.stats.delivered_per_kind
        )
        assert direct.stats.messages_delivered == 6 and len(seen) == 6


class TestLossInjection:
    def test_full_loss_drops_everything(self):
        net = Network(loss_probability=1.0, rng=np.random.default_rng(0))
        assert net.deliver(Message(0, 1, "k")) is False
        assert not net.exchange_ok(0, 1, "k")
        assert net.stats.messages_dropped > 0

    def test_loss_rate_approximates_probability(self):
        net = Network(loss_probability=0.3, rng=np.random.default_rng(0))
        outcomes = [net.deliver(Message(0, 1, "k")) for _ in range(4000)]
        drop_rate = 1.0 - np.mean(outcomes)
        assert drop_rate == pytest.approx(0.3, abs=0.03)

    def test_exchange_fails_more_than_single_message(self):
        # Request AND reply must survive: failure prob = 1 - (1-p)^2.
        net = Network(loss_probability=0.2, rng=np.random.default_rng(1))
        ok = [net.exchange_ok(0, 1, "k") for _ in range(4000)]
        assert np.mean(ok) == pytest.approx(0.8**2, abs=0.03)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            Network(loss_probability=1.5)


class TestConfigure:
    def test_returns_self_and_updates_fields(self):
        net = Network()
        rng = np.random.default_rng(7)
        assert net.configure(loss_probability=0.4, rng=rng) is net
        assert net.loss_probability == 0.4
        assert net._rng is rng

    def test_none_leaves_field_untouched(self):
        rng = np.random.default_rng(2)
        net = Network(loss_probability=0.3, rng=rng)
        net.configure(loss_per_kind={"glap": 0.5})
        assert net.loss_probability == 0.3
        assert net._rng is rng
        net.configure(loss_per_kind={})
        assert net.loss_per_kind == {}

    def test_invalid_values_rejected(self):
        net = Network()
        with pytest.raises(ValueError):
            net.configure(loss_probability=-0.1)
        with pytest.raises(ValueError):
            net.configure(loss_per_kind={"k": 2.0})
        with pytest.raises(ValueError):
            net.configure(loss_per_kind={"": 0.5})

    def test_lossless_delivery_consumes_no_randomness(self):
        # The zero-fault identity contract: with p == 0 the RNG must not
        # be advanced, so a later consumer sees an untouched stream.
        rng = np.random.default_rng(5)
        expected = np.random.default_rng(5).random()
        net = Network(rng=rng)
        for _ in range(100):
            assert net.deliver(Message(0, 1, "k"))
        assert rng.random() == expected


class TestPerKindLoss:
    def test_most_specific_prefix_wins(self):
        net = Network(loss_per_kind={"glap": 0.0, "glap/state": 1.0})
        assert net.deliver(Message(0, 1, "glap/state/req")) is False
        assert net.deliver(Message(0, 1, "glap/advert")) is True

    def test_falls_back_to_global_probability(self):
        net = Network(
            loss_probability=1.0,
            loss_per_kind={"cyclon": 0.0},
            rng=np.random.default_rng(0),
        )
        assert net.deliver(Message(0, 1, "cyclon/shuffle")) is True
        assert net.deliver(Message(0, 1, "glap/state")) is False

    def test_dropped_per_kind_counter(self):
        net = Network(loss_per_kind={"a": 1.0})
        net.deliver(Message(0, 1, "a"))
        net.deliver(Message(0, 1, "b"))
        assert net.stats.dropped_per_kind == {"a": 1}


class TestPartition:
    def test_cross_group_messages_drop_without_rng(self):
        rng = np.random.default_rng(9)
        expected = np.random.default_rng(9).random()
        net = Network(rng=rng)
        net.set_partition([(0, 1), (2, 3)])
        assert net.partitioned
        assert net.deliver(Message(0, 2, "k")) is False
        assert net.deliver(Message(0, 1, "k")) is True
        assert rng.random() == expected  # deterministic cut, no draws

    def test_unlisted_nodes_form_implicit_group(self):
        net = Network()
        net.set_partition([(0, 1)])
        assert net.deliver(Message(5, 6, "k")) is True  # both implicit
        assert net.deliver(Message(0, 5, "k")) is False

    def test_broadcast_exempt(self):
        net = Network()
        net.set_partition([(0,), (1,)])
        assert net.deliver(Message(0, -1, "advert")) is True

    def test_overlapping_groups_rejected(self):
        net = Network()
        with pytest.raises(ValueError):
            net.set_partition([(0, 1), (1, 2)])

    def test_clear_and_empty_groups_heal(self):
        net = Network()
        net.set_partition([(0,), (1,)])
        net.clear_partition()
        assert not net.partitioned
        net.set_partition([(0,), (1,)])
        net.set_partition([])
        assert not net.partitioned
        assert net.deliver(Message(0, 1, "k")) is True

    def test_exchange_ok_blocked_across_cut(self):
        net = Network()
        net.set_partition([(0,), (1,)])
        assert not net.exchange_ok(0, 1, "x")
        assert net.stats.messages_dropped == 2


class TestMessage:
    def test_frozen(self):
        msg = Message(0, 1, "k")
        with pytest.raises(AttributeError):
            msg.kind = "other"

    def test_defaults(self):
        msg = Message(0, 1, "k")
        assert msg.payload is None
        assert msg.size_bytes == 0


class TestPerDirectionBytes:
    """Regression: an asymmetric push-pull exchange must charge each
    direction its own payload, not the combined size twice."""

    def test_exchange_ok_per_direction_sizes(self):
        net = Network()
        assert net.exchange_ok(0, 1, "glap/aggregate",
                               req_bytes=36, rep_bytes=60)
        assert net.stats.messages_sent == 2
        assert net.stats.bytes_sent == 96  # 36 + 60, not 2 x 96

    def test_symmetric_default_unchanged(self):
        net = Network()
        assert net.exchange_ok(0, 1, "x", size_bytes=5)
        assert net.stats.bytes_sent == 10

    def test_partial_override_falls_back_to_size_bytes(self):
        net = Network()
        assert net.exchange_ok(0, 1, "x", size_bytes=5, rep_bytes=20)
        assert net.stats.bytes_sent == 25

    def test_zero_byte_directions(self):
        net = Network()
        assert net.exchange_ok(0, 1, "x", req_bytes=0, rep_bytes=0)
        assert net.stats.bytes_sent == 0
        assert net.stats.messages_sent == 2


class TestLossPrefixMatching:
    """Focused suite for the `_loss_for` "most specific /-prefix wins"
    contract, including the per-direction aggregation kinds."""

    def test_exact_kind_beats_every_prefix(self):
        net = Network(loss_per_kind={
            "glap": 0.0,
            "glap/aggregate": 0.0,
            "glap/aggregate/req": 1.0,
        })
        assert net._loss_for("glap/aggregate/req") == 1.0
        assert net._loss_for("glap/aggregate/rep") == 0.0
        assert net._loss_for("glap/aggregate") == 0.0

    def test_req_and_rep_inherit_from_exchange_kind(self):
        net = Network(loss_per_kind={"glap/aggregate": 1.0})
        assert net._loss_for("glap/aggregate/req") == 1.0
        assert net._loss_for("glap/aggregate/rep") == 1.0
        assert net._loss_for("glap/advert") == 0.0

    def test_directional_loss_kills_the_whole_exchange(self):
        # Dropping only replies still fails exchange_ok (push-pull needs
        # both legs), while request-only traffic of that kind survives.
        net = Network(loss_per_kind={"glap/aggregate/rep": 1.0})
        assert net.deliver(Message(0, 1, "glap/aggregate/req")) is True
        assert net.exchange_ok(0, 1, "glap/aggregate") is False

    def test_walks_up_multiple_levels(self):
        net = Network(loss_per_kind={"glap": 1.0})
        assert net._loss_for("glap/aggregate/req") == 1.0
        assert net._loss_for("glap") == 1.0
        assert net._loss_for("glapx") == 0.0  # prefix is per /-segment

    def test_no_match_falls_back_to_global(self):
        net = Network(loss_probability=0.7,
                      loss_per_kind={"cyclon": 0.1})
        assert net._loss_for("glap/aggregate/req") == 0.7

    def test_leading_slash_kind_is_degenerate_not_infinite(self):
        # A kind like "/weird" has rfind("/") == 0; the walk must stop
        # (cut > 0 guard) instead of probing "" forever or matching the
        # root.  It falls back to the global probability.
        net = Network(loss_probability=0.25, loss_per_kind={"weird": 1.0})
        assert net._loss_for("/weird") == 0.25
        assert net._loss_for("/") == 0.25

    def test_leading_slash_exact_entry_still_matches(self):
        net = Network(loss_per_kind={"/weird": 1.0})
        assert net._loss_for("/weird") == 1.0
        assert net._loss_for("/weird/sub") == 1.0

    def test_empty_table_uses_global(self):
        net = Network(loss_probability=0.4)
        assert net._loss_for("anything/at/all") == 0.4
