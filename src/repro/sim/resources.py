"""Contended facilities with a FIFO queue.

A :class:`Resource` models a facility with a fixed number of slots served
in arrival order (CSIM's FIFO ``facility``); each host's disk and CPU is a
``Resource(env, capacity=1)``.  Processes obtain a slot with ``request()``
— an event that fires when the slot is granted — and free it with
``release(request)``.  Requests support the context-manager protocol::

    with host.disk.request() as req:
        yield req
        ...  # slot held
    # slot released

An uncontended holder can skip the request event with
:meth:`Resource.try_acquire`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.sim.errors import SimulationError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


class Request(Event):
    """A pending or granted claim on a :class:`Resource` slot."""

    __slots__ = ("resource", "granted")

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        #: Set once the request holds a slot.
        self.granted = False

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Withdraw the request, releasing its slot if already granted."""
        self.resource.release(self)


class Resource:
    """A facility with ``capacity`` identical slots and a FIFO queue."""

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        self.env = env
        self._capacity = capacity
        self._users: list[Request] = []
        self._queue: list[Request] = []

    # -- introspection ------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    # -- protocol -----------------------------------------------------------
    def request(self) -> Request:
        """Claim a slot; the returned event fires when the slot is granted."""
        req = Request(self)
        self._queue.append(req)
        self._trigger()
        return req

    def try_acquire(self) -> Optional[Request]:
        """Claim a free slot synchronously, with no calendar event.

        Returns a granted :class:`Request` (free it with
        :meth:`release`), or None when every slot is held.  Occupancy
        accounting is identical to :meth:`request` — a free slot is
        claimed at call time either way — so holders via either protocol
        queue behind each other correctly.  The fluid facility fast path
        (:meth:`repro.net.host.Host._use`) uses this to occupy an
        uncontended disk/CPU with a single timeout event instead of the
        request-grant/timeout event pair.
        """
        if len(self._users) >= self._capacity:
            return None
        req = Request(self)
        req.granted = True
        req._ok = True
        req._value = None
        self._users.append(req)
        return req

    def release(self, request: Request) -> None:
        """Free the slot held by ``request`` (or withdraw it if queued)."""
        if request.granted:
            self._users.remove(request)
            request.granted = False
            self._trigger()
        else:
            try:
                self._queue.remove(request)
            except ValueError:
                pass  # released twice / never queued: harmless no-op

    # -- internals ----------------------------------------------------------
    def _trigger(self) -> None:
        while self._queue and len(self._users) < self._capacity:
            req = self._queue.pop(0)
            if req.triggered:
                raise SimulationError("queued request already triggered")
            req.granted = True
            self._users.append(req)
            req.succeed()
