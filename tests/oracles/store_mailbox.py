"""The store-backed reference mailbox.

:class:`repro.net.host.Mailbox` is a self-contained priority queue that
hands a delivered message straight to the oldest waiting getter, so a
delivery costs at most the getter's own calendar entry.  The mailbox it
replaced sat on a generic SimPy-style priority store: every delivery went
through ``Store.put``, which succeeds a :class:`StorePut` event that
nobody waits on.  :class:`StoreMailbox` keeps that behaviour (one
no-callback ``StorePut`` per delivery, scheduled before the getter it
serves), and :func:`store_mailbox` patches it in for the duration of a
``with store_mailbox():`` block, so equivalence tests can compare both
ways: results must match bit for bit, and the kernel event count may
differ by exactly one ``StorePut`` per delivery.
"""

from __future__ import annotations

from contextlib import contextmanager
from heapq import heappop, heappush
from typing import Iterator

from repro.net import host as host_module
from repro.net.message import Message
from repro.sim import Environment, Event
from repro.sim.events import StoreGet


class StorePut(Event):
    """Fires once the store has accepted an item; nobody waits on it."""

    __slots__ = ()


class StoreMailbox:
    """Priority-ordered queue of delivered messages, store style."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._heap: list[tuple[int, int, Message]] = []
        self._getters: list[StoreGet] = []
        self._sequence = 0

    def deliver(self, message: Message) -> None:
        heappush(self._heap, (int(message.priority or 0), self._sequence, message))
        self._sequence += 1
        StorePut(self.env).succeed()
        self._dispatch()

    def get(self) -> StoreGet:
        event = StoreGet(self.env)
        self._getters.append(event)
        self._dispatch()
        return event

    def _dispatch(self) -> None:
        while self._getters and self._heap:
            self._getters.pop(0).succeed(heappop(self._heap)[2])

    def __len__(self) -> int:
        return len(self._heap)

    def drain(self) -> list[Message]:
        drained = [message for _, _, message in sorted(self._heap)]
        self._heap.clear()
        return drained


@contextmanager
def store_mailbox() -> Iterator[None]:
    """Build every mailbox created in the block on the store reference."""
    original = host_module.Mailbox
    host_module.Mailbox = StoreMailbox  # type: ignore[misc]
    try:
        yield
    finally:
        host_module.Mailbox = original  # type: ignore[misc]
