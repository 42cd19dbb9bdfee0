"""Tests for repro.simulator.node."""

import pytest

from repro.simulator.node import Node, NodeState


class TestLifecycle:
    def test_starts_up(self):
        node = Node(0)
        assert node.is_up and not node.is_sleeping and not node.is_failed

    def test_sleep_and_wake(self):
        node = Node(0)
        node.sleep()
        assert node.is_sleeping
        node.wake()
        assert node.is_up

    def test_fail_is_permanent(self):
        node = Node(0)
        node.fail()
        assert node.is_failed
        with pytest.raises(RuntimeError):
            node.wake()
        with pytest.raises(RuntimeError):
            node.sleep()

    def test_recover_restarts_failed_node(self):
        node = Node(0)
        node.fail()
        node.recover()
        assert node.is_up
        node.sleep()  # lifecycle fully usable again
        node.wake()
        assert node.is_up

    def test_recover_requires_failed_state(self):
        # Only the fault injector may restart a node; recover() on a
        # healthy or sleeping node is a bug in the caller.
        with pytest.raises(RuntimeError):
            Node(0).recover()
        node = Node(0)
        node.sleep()
        with pytest.raises(RuntimeError):
            node.recover()

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            Node(-1)

    def test_state_enum_values(self):
        assert NodeState.UP.value == "up"
        assert NodeState.SLEEPING.value == "sleeping"
        assert NodeState.FAILED.value == "failed"


class TestProtocolStack:
    def test_register_and_lookup(self):
        node = Node(1)
        proto = object()
        node.register("cyclon", proto)
        assert node.protocol("cyclon") is proto
        assert "cyclon" in node.protocols

    def test_duplicate_registration_rejected(self):
        node = Node(1)
        node.register("p", object())
        with pytest.raises(ValueError):
            node.register("p", object())

    def test_missing_protocol_error_lists_registered(self):
        node = Node(1)
        node.register("a", object())
        with pytest.raises(KeyError, match="a"):
            node.protocol("missing")

    def test_registration_order_preserved(self):
        node = Node(1)
        for name in ("cyclon", "learning", "consolidation"):
            node.register(name, object())
        assert list(node.protocols.keys()) == ["cyclon", "learning", "consolidation"]


class TestIdentity:
    def test_equality_by_id(self):
        assert Node(3) == Node(3)
        assert Node(3) != Node(4)

    def test_hashable(self):
        assert len({Node(1), Node(1), Node(2)}) == 2

    def test_repr(self):
        assert "5" in repr(Node(5))
