"""The store-backed reference mailbox.

:class:`repro.net.host.Mailbox` is a self-contained priority queue that
hands a delivered message straight to the oldest waiting getter, so a
delivery costs at most the getter's own calendar entry.  The mailbox it
replaced sat on the generic :class:`repro.sim.stores.PriorityStore`:
every delivery went through ``Store.put``, which succeeds a
:class:`repro.sim.stores.StorePut` event that nobody waits on.
:func:`store_mailbox` patches that store-backed mailbox back in for the
duration of a ``with store_mailbox():`` block, so equivalence tests can
compare both ways: results must match bit for bit, and the kernel event
count may differ by exactly one ``StorePut`` per delivery.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.net import host as host_module
from repro.net.message import Message
from repro.sim import Environment
from repro.sim.stores import PriorityItem, PriorityStore, StoreGet


class _MessageStore(PriorityStore):
    """A priority store that hands back the bare message, not the wrapper."""

    def _take_item(self, event):
        entry = super()._take_item(event)
        return entry.item if isinstance(entry, PriorityItem) else entry


class StoreMailbox:
    """Priority-ordered queue of delivered messages on a ``PriorityStore``."""

    def __init__(self, env: Environment) -> None:
        self._store = _MessageStore(env)
        self.env = env

    def deliver(self, message: Message) -> None:
        self._store.put(PriorityItem(int(message.priority or 0), message))

    def get(self) -> StoreGet:
        return self._store.get()

    def __len__(self) -> int:
        return len(self._store)

    def drain(self) -> list[Message]:
        return [entry.item for entry in self._store.clear()]


@contextmanager
def store_mailbox() -> Iterator[None]:
    """Build every mailbox created in the block on the generic store."""
    original = host_module.Mailbox
    host_module.Mailbox = StoreMailbox  # type: ignore[misc]
    try:
        yield
    finally:
        host_module.Mailbox = original  # type: ignore[misc]
