"""Tests for MessageStats and FailureInjector."""

import pytest

from repro.sim.failures import FailureInjector
from repro.sim.metrics import DetailNotCollected, MessageStats


class TestMessageStats:
    def test_record_send_updates_counters(self):
        stats = MessageStats(detailed=True)
        stats.record_send(1, 2, "read_query")
        stats.record_send(1, 3, "read_query")
        stats.record_send(2, 3, "write_update")
        assert stats.sent == 3
        assert stats.by_kind["read_query"] == 2
        assert stats.by_kind["write_update"] == 1

    def test_record_delivery_and_receiver_load(self):
        stats = MessageStats(detailed=True)
        for _ in range(3):
            stats.record_send(0, 1, None)
            stats.record_delivery(0, 1)
        stats.record_send(0, 2, None)
        stats.record_delivery(0, 2)
        assert stats.delivered == 4
        # A receiver's load is its share of the deliveries.
        assert stats.by_receiver[1] / stats.delivered == 0.75
        assert stats.by_receiver.most_common(1) == [(1, 3)]

    def test_receiver_load_zero_when_no_deliveries(self):
        stats = MessageStats(detailed=True)
        assert stats.delivered == 0
        assert stats.by_receiver[0] == 0
        assert stats.by_receiver.most_common(1) == []

    def test_drops_attributed_to_reason(self):
        stats = MessageStats(detailed=True)
        stats.record_send(0, 1, "read_query")
        stats.record_drop(0, 1, kind="read_query", reason="fault")
        stats.record_send(0, 2, "write_update")
        stats.record_drop(0, 2, kind="write_update", reason="loss")
        stats.record_send(0, 2, "write_update")
        stats.record_drop(0, 2, kind="write_update", reason="loss")
        assert stats.dropped == 3
        assert stats.dropped_by_reason == {"fault": 1, "loss": 2}
        assert stats.drop_rate() == 1.0

    def test_drop_rate_zero_when_nothing_sent(self):
        assert MessageStats().drop_rate() == 0.0

    def test_reset_clears_everything(self):
        stats = MessageStats(detailed=True)
        stats.record_send(0, 1, "x")
        stats.record_delivery(0, 1, kind="x")
        stats.record_drop(0, 1, kind="x", reason="loss")
        stats.reset()
        assert stats.sent == 0
        assert stats.delivered == 0
        assert stats.dropped == 0
        assert not stats.by_receiver
        assert not stats.by_kind
        assert not stats.dropped_by_reason
        # A reset instance behaves exactly like a fresh one.
        assert stats.by_receiver.most_common(1) == []
        assert stats.drop_rate() == 0.0

    def test_scalar_mode_counts_totals_only(self):
        stats = MessageStats()
        stats.record_send(0, 1, "read_query")
        stats.record_sends(0, 3, "read_query")
        stats.record_delivery(0, 1, kind="read_query")
        stats.record_drop(0, 2, kind="read_query", reason="loss")
        assert stats.sent == 4
        assert stats.delivered == 1
        assert stats.dropped == 1
        assert stats.drop_rate() == 0.25

    def test_scalar_mode_breakdowns_raise_not_lie(self):
        # The default, detailed=False, never collected the breakdowns;
        # reading one must raise, not silently answer (None, 0) / 0.0 /
        # empty.
        stats = MessageStats()
        stats.record_send(0, 1, "read_query")
        stats.record_delivery(0, 1, kind="read_query")
        for accessor in (
            lambda: stats.by_receiver,
            lambda: stats.by_kind,
            lambda: stats.dropped_by_reason,
        ):
            with pytest.raises(DetailNotCollected, match="detailed=False"):
                accessor()
        # DetailNotCollected is a RuntimeError, so legacy broad handlers
        # still catch it.
        assert issubclass(DetailNotCollected, RuntimeError)


class TestFailureInjector:
    def test_crash_blocks_delivery_both_directions(self):
        inj = FailureInjector()
        inj.crash(1)
        assert not inj.can_deliver(0, 1)
        assert not inj.can_deliver(1, 0)
        assert inj.can_deliver(0, 2)

    def test_crash_is_idempotent_and_recoverable(self):
        inj = FailureInjector()
        inj.crash(1)
        inj.crash(1)
        assert inj.is_crashed(1)
        inj.recover_many([1])
        assert not inj.is_crashed(1)
        inj.recover_many([1])  # no-op
        assert inj.recoveries == 1

    def test_crash_many_and_recover_all(self):
        inj = FailureInjector()
        inj.crash_many([1, 2, 3])
        assert all(inj.is_crashed(node) for node in (1, 2, 3))
        inj.recover_all()
        assert not any(inj.is_crashed(node) for node in (1, 2, 3))
        assert not inj.any_failures

    def test_partition_blocks_cross_group_traffic(self):
        inj = FailureInjector()
        inj.partition([{0, 1}, {2, 3}])
        assert inj.can_deliver(0, 1)
        assert inj.can_deliver(2, 3)
        assert not inj.can_deliver(0, 2)
        assert not inj.can_deliver(3, 1)

    def test_node_outside_partition_reaches_everyone(self):
        inj = FailureInjector()
        inj.partition([{0, 1}, {2, 3}])
        assert inj.can_deliver(9, 0)
        assert inj.can_deliver(2, 9)

    def test_heal_partition_restores_traffic(self):
        inj = FailureInjector()
        inj.partition([{0}, {1}])
        assert not inj.can_deliver(0, 1)
        inj.heal_partition()
        assert inj.can_deliver(0, 1)

    def test_crash_overrides_partition_membership(self):
        inj = FailureInjector()
        inj.partition([{0, 1}])
        inj.crash(0)
        assert not inj.can_deliver(0, 1)
