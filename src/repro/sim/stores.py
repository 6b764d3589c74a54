"""Producer/consumer stores (message queues).

A :class:`Store` holds items; ``put(item)`` and ``get()`` return events that
fire when the operation completes.  :class:`PriorityStore` delivers items in
priority order (the hosts' actor mailboxes, :class:`repro.net.host.Mailbox`,
are a leaner special case of it).  :class:`FilterStore` lets a
consumer wait for an item matching a predicate (used to wait for the reply
to a specific request).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Callable

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


class StorePut(Event):
    """Event that fires when an item has been accepted by the store."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.item = item


class StoreGet(Event):
    """Event that fires with the retrieved item as its value."""

    __slots__ = ()

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)


class FilterStoreGet(StoreGet):
    """A get that only matches items satisfying ``predicate``."""

    __slots__ = ("predicate",)

    def __init__(self, store: "Store", predicate: Callable[[Any], bool]) -> None:
        super().__init__(store)
        self.predicate = predicate


class Store:
    """An unbounded-or-bounded FIFO item store.

    Parameters
    ----------
    env:
        Owning environment.
    capacity:
        Maximum number of items held; ``put`` blocks while full.
        ``float("inf")`` (the default) means unbounded.
    """

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        self.env = env
        self.capacity = capacity
        self.items: list[Any] = []
        self._putters: list[StorePut] = []
        self._getters: list[StoreGet] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Offer ``item``; the event fires once the store has space."""
        event = StorePut(self, item)
        self._putters.append(event)
        self._dispatch()
        return event

    def get(self) -> StoreGet:
        """Request one item; the event's value is the item."""
        event = StoreGet(self)
        self._getters.append(event)
        self._dispatch()
        return event

    # -- internals ----------------------------------------------------------
    def _do_put(self, event: StorePut) -> bool:
        if len(self.items) < self.capacity:
            self._store_item(event.item)
            event.succeed()
            return True
        return False

    def _do_get(self, event: StoreGet) -> bool:
        item = self._take_item(event)
        if item is _NO_ITEM:
            return False
        event.succeed(item)
        return True

    def _store_item(self, item: Any) -> None:
        self.items.append(item)

    def _take_item(self, event: StoreGet) -> Any:
        if self.items:
            return self.items.pop(0)
        return _NO_ITEM

    def _dispatch(self) -> None:
        # Alternate put/get matching until no further progress is possible.
        progress = True
        while progress:
            progress = False
            while self._putters:
                if self._do_put(self._putters[0]):
                    self._putters.pop(0)
                    progress = True
                else:
                    break
            remaining: list[StoreGet] = []
            for getter in self._getters:
                if self._do_get(getter):
                    progress = True
                else:
                    remaining.append(getter)
            self._getters = remaining


#: Sentinel distinguishing "no matching item" from a stored ``None``.
_NO_ITEM: Any = object()


class PriorityItem:
    """Wrapper ordering arbitrary items by an explicit priority."""

    __slots__ = ("priority", "item")

    def __init__(self, priority: int, item: Any) -> None:
        self.priority = priority
        self.item = item

    def __lt__(self, other: "PriorityItem") -> bool:
        return self.priority < other.priority

    def __eq__(self, other: object) -> bool:
        # Equality on priority (not payload) so that heap tuples fall
        # through to the insertion-sequence tie-breaker, keeping delivery
        # FIFO within a priority class.
        if isinstance(other, PriorityItem):
            return self.priority == other.priority
        return NotImplemented

    def __hash__(self) -> int:
        return object.__hash__(self)

    def __repr__(self) -> str:
        return f"PriorityItem({self.priority!r}, {self.item!r})"


class PriorityStore(Store):
    """A store that always yields the lowest-priority-value item first.

    Items must be mutually orderable; wrap arbitrary payloads in
    :class:`PriorityItem`.  Insertion order breaks ties (stable).
    """

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:
        super().__init__(env, capacity)
        self._heap: list[tuple[Any, int, Any]] = []
        self._sequence = 0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def items(self) -> list[Any]:  # type: ignore[override]
        """Snapshot of stored items in delivery order."""
        return [item for _, _, item in sorted(self._heap)]

    @items.setter
    def items(self, value: list[Any]) -> None:
        # Assigned by Store.__init__; only the empty initial list is allowed.
        if value:
            raise ValueError("PriorityStore items cannot be assigned directly")

    def _store_item(self, item: Any) -> None:
        heappush(self._heap, (item, self._sequence, item))
        self._sequence += 1

    def _take_item(self, event: StoreGet) -> Any:
        if self._heap:
            return heappop(self._heap)[2]
        return _NO_ITEM

    def _do_put(self, event: StorePut) -> bool:
        if len(self._heap) < self.capacity:
            self._store_item(event.item)
            event.succeed()
            return True
        return False

    def clear(self) -> list[Any]:
        """Remove and return all stored items, in delivery order."""
        drained = self.items
        self._heap.clear()
        return drained


class FilterStore(Store):
    """A store whose consumers can wait for items matching a predicate."""

    def get(self, predicate: Callable[[Any], bool] = lambda item: True) -> FilterStoreGet:  # type: ignore[override]
        """Request the first stored item satisfying ``predicate``."""
        event = FilterStoreGet(self, predicate)
        self._getters.append(event)
        self._dispatch()
        return event

    def _take_item(self, event: StoreGet) -> Any:
        assert isinstance(event, FilterStoreGet)
        for index, item in enumerate(self.items):
            if event.predicate(item):
                return self.items.pop(index)
        return _NO_ITEM
