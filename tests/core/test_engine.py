"""Tests for shared engine machinery: WriteTxn bookkeeping, exclusion."""

import pytest

from repro.core.engine import WriteTxn
from repro.core.messages import Message, MsgType
from repro.core.timestamp import Timestamp
from repro.errors import ProtocolError
from repro.sim import Simulator


def ack(type, src, write_id=1):
    return Message(type=type, key="k", ts=Timestamp(1, 0), src=src,
                   write_id=write_id)


@pytest.fixture
def sim():
    return Simulator()


class TestAckBookkeeping:
    def test_all_acks_fires_when_every_follower_answered(self, sim):
        txn = WriteTxn(sim, 1, "k", Timestamp(1, 0), expected=[1, 2, 3])
        txn.on_ack(ack(MsgType.ACK, 1))
        txn.on_ack(ack(MsgType.ACK, 2))
        assert not txn.all_acks.triggered
        txn.on_ack(ack(MsgType.ACK, 3))
        assert txn.all_acks.triggered

    def test_ack_c_and_ack_p_tracked_separately(self, sim):
        txn = WriteTxn(sim, 1, "k", Timestamp(1, 0), expected=[1, 2])
        txn.on_ack(ack(MsgType.ACK_C, 1))
        txn.on_ack(ack(MsgType.ACK_C, 2))
        assert txn.all_ack_cs.triggered
        assert not txn.all_ack_ps.triggered
        txn.on_ack(ack(MsgType.ACK_P, 1))
        txn.on_ack(ack(MsgType.ACK_P, 2))
        assert txn.all_ack_ps.triggered

    def test_duplicate_ack_raises(self, sim):
        txn = WriteTxn(sim, 1, "k", Timestamp(1, 0), expected=[1, 2])
        txn.on_ack(ack(MsgType.ACK, 1))
        with pytest.raises(ProtocolError, match="duplicate"):
            txn.on_ack(ack(MsgType.ACK, 1))

    def test_non_ack_rejected(self, sim):
        txn = WriteTxn(sim, 1, "k", Timestamp(1, 0), expected=[1])
        with pytest.raises(ProtocolError):
            txn.on_ack(ack(MsgType.VAL, 1))

    def test_last_ack_time_recorded(self, sim):
        txn = WriteTxn(sim, 1, "k", Timestamp(1, 0), expected=[1])

        def proc():
            yield sim.timeout(5.0)
            txn.on_ack(ack(MsgType.ACK, 1))

        sim.run_process(proc())
        assert txn.last_ack_at == 5.0


class TestExclusion:
    """Failure handling (§III-E): declared-failed nodes stop blocking."""

    def test_exclusion_completes_waiting_txn(self, sim):
        txn = WriteTxn(sim, 1, "k", Timestamp(1, 0), expected=[1, 2, 3])
        txn.on_ack(ack(MsgType.ACK, 1))
        txn.on_ack(ack(MsgType.ACK, 2))
        txn.exclude(3)
        assert txn.all_acks.triggered

    def test_exclusion_of_already_acked_node_is_noop(self, sim):
        txn = WriteTxn(sim, 1, "k", Timestamp(1, 0), expected=[1, 2])
        txn.on_ack(ack(MsgType.ACK, 1))
        txn.exclude(1)
        assert not txn.all_acks.triggered  # node 2 still owed
        txn.on_ack(ack(MsgType.ACK, 2))
        assert txn.all_acks.triggered

    def test_exclusion_of_stranger_ignored(self, sim):
        txn = WriteTxn(sim, 1, "k", Timestamp(1, 0), expected=[1])
        txn.exclude(99)
        assert not txn.all_acks.triggered

    def test_txn_with_every_peer_excluded_completes_at_birth(self, sim):
        """A write begun while every peer is excluded expects no ACK;
        its ACK conditions hold at once instead of never."""
        txn = WriteTxn(sim, 1, "k", Timestamp(1, 0), expected=[])
        assert txn.all_acks.triggered
        assert txn.all_ack_cs.triggered
        assert txn.all_ack_ps.triggered

    def test_followers_property(self, sim):
        txn = WriteTxn(sim, 1, "k", Timestamp(1, 0), expected=[1, 2, 3])
        assert txn.followers == 3
