"""Host facilities: mailboxes, disk, CPU."""

import pytest

from repro.net.host import Host
from repro.net.message import Message, MessageKind


def make_host(env, name="h0", disk_rate=1000.0):
    return Host(env, name, disk_rate=disk_rate)


def msg(kind=MessageKind.DATA, priority=None, uid_tag=""):
    return Message(kind, "src" + uid_tag, "dst", 10, priority=priority)


class TestHost:
    def test_disk_rate_validation(self, env):
        with pytest.raises(ValueError):
            Host(env, "x", disk_rate=0)

    def test_disk_read_takes_size_over_rate(self, env):
        host = make_host(env, disk_rate=1000.0)
        finished = []

        def proc(env):
            yield from host.disk_read(500)
            finished.append(env.now)

        env.process(proc(env))
        env.run()
        assert finished == [0.5]

    def test_disk_serializes_concurrent_reads(self, env):
        host = make_host(env, disk_rate=100.0)
        finished = []

        def proc(env, tag):
            yield from host.disk_read(100)
            finished.append((env.now, tag))

        env.process(proc(env, "a"))
        env.process(proc(env, "b"))
        env.run()
        assert finished == [(1.0, "a"), (2.0, "b")]

    def test_disk_read_rejects_negative(self, env):
        host = make_host(env)
        with pytest.raises(ValueError):
            list(host.disk_read(-1))

    def test_compute_occupies_cpu(self, env):
        host = make_host(env)
        finished = []

        def proc(env, tag):
            yield from host.compute(2.0)
            finished.append((env.now, tag))

        env.process(proc(env, "a"))
        env.process(proc(env, "b"))
        env.run()
        assert finished == [(2.0, "a"), (4.0, "b")]

    def test_compute_rejects_negative(self, env):
        with pytest.raises(ValueError):
            list(make_host(env).compute(-0.1))


class TestMailbox:
    def test_priority_delivery(self, env):
        host = make_host(env)
        box = host.mailbox("actor")
        got = []

        def consumer(env):
            yield env.timeout(1)
            for _ in range(3):
                message = yield box.get()
                got.append(message.kind)

        box.deliver(msg(MessageKind.DATA))
        box.deliver(msg(MessageKind.DEMAND))
        box.deliver(msg(MessageKind.BARRIER))
        env.process(consumer(env))
        env.run()
        assert got == [MessageKind.BARRIER, MessageKind.DEMAND, MessageKind.DATA]

    def test_mailbox_get_unwraps_message(self, env):
        host = make_host(env)
        box = host.mailbox("a")
        original = msg()
        box.deliver(original)
        received = []

        def consumer(env):
            message = yield box.get()
            received.append(message)

        env.process(consumer(env))
        env.run()
        assert received == [original]

    def test_mailbox_created_once(self, env):
        host = make_host(env)
        assert host.mailbox("a") is host.mailbox("a")

    def test_remove_mailbox_returns_pending(self, env):
        host = make_host(env)
        box = host.mailbox("a")
        m1, m2 = msg(uid_tag="1"), msg(uid_tag="2")
        box.deliver(m1)
        box.deliver(m2)
        env.run()
        drained = host.remove_mailbox("a")
        assert drained == [m1, m2]
        assert host.remove_mailbox("a") == []  # already gone

    def test_len(self, env):
        host = make_host(env)
        box = host.mailbox("a")
        box.deliver(msg())
        env.run()
        assert len(box) == 1

    def test_delivery_without_getter_schedules_nothing(self, env):
        box = make_host(env).mailbox("a")
        box.deliver(msg())
        assert env._queue == []
        assert len(box) == 1

    def test_delivery_to_waiting_getter_schedules_one_entry(self, env):
        box = make_host(env).mailbox("a")
        getter = box.get()
        assert env._queue == []
        original = msg()
        box.deliver(original)
        assert [entry[3] for entry in env._queue] == [getter]
        assert len(box) == 0
        env.run()
        assert getter.value is original

    def test_waiting_getters_are_served_fifo(self, env):
        box = make_host(env).mailbox("a")
        first, second = box.get(), box.get()
        m1, m2 = msg(uid_tag="1"), msg(uid_tag="2")
        box.deliver(m1)
        box.deliver(m2)
        assert [entry[3] for entry in env._queue] == [first, second]
        env.run()
        assert (first.value, second.value) == (m1, m2)

    def test_drain_is_priority_then_fifo_and_leaves_getters_waiting(self, env):
        box = make_host(env).mailbox("a")
        data1, data2 = msg(MessageKind.DATA, uid_tag="1"), msg(MessageKind.DATA, uid_tag="2")
        barrier = msg(MessageKind.BARRIER)
        for message in (data1, data2, barrier):
            box.deliver(message)
        assert box.drain() == [barrier, data1, data2]
        assert len(box) == 0
        getter = box.get()
        assert box.drain() == []
        assert not getter.triggered
        late = msg(uid_tag="late")
        box.deliver(late)
        env.run()
        assert getter.value is late
