"""Message taxonomy, priorities and wire sizes."""

import pytest

from repro.net.message import (
    HEADER_BYTES,
    PRIORITY_BARRIER,
    PRIORITY_CONTROL,
    PRIORITY_DATA,
    PRIORITY_DEMAND,
    Message,
    MessageKind,
)


class TestPriorities:
    def test_barrier_beats_everything(self):
        assert PRIORITY_BARRIER < PRIORITY_CONTROL < PRIORITY_DEMAND < PRIORITY_DATA

    def test_default_priority_from_kind(self):
        msg = Message(MessageKind.BARRIER, "a", "b", 0)
        assert msg.priority == PRIORITY_BARRIER
        msg = Message(MessageKind.DATA, "a", "b", 100)
        assert msg.priority == PRIORITY_DATA

    def test_explicit_priority_wins(self):
        msg = Message(MessageKind.BARRIER, "a", "b", 0, priority=PRIORITY_DATA)
        assert msg.priority == PRIORITY_DATA


class TestMessage:
    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Message(MessageKind.DATA, "a", "b", -1)

    def test_wire_size_adds_header(self):
        msg = Message(MessageKind.DATA, "a", "b", 1000)
        assert msg.wire_size == 1000 + HEADER_BYTES

    def test_wire_size_includes_piggyback(self):
        msg = Message(MessageKind.DATA, "a", "b", 1000)
        msg.piggyback = {"bytes": 240, "entries": []}
        assert msg.wire_size == 1000 + HEADER_BYTES + 240

    def test_uids_unique_and_increasing(self):
        uids = [Message(MessageKind.DEMAND, "x", "y", 0).uid for _ in range(50)]
        assert all(later > earlier for earlier, later in zip(uids, uids[1:]))

    def test_kind_enum_roundtrip(self):
        assert MessageKind("data") is MessageKind.DATA

    def test_unknown_attributes_rejected(self):
        msg = Message(MessageKind.DATA, "a", "b", 10)
        with pytest.raises(AttributeError):
            msg.not_a_field = 1
