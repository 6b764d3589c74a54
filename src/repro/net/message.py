"""Message taxonomy and priorities.

The simulation exchanges four kinds of messages:

* ``DATA`` — image partitions flowing up the combination tree (bulk).
* ``DEMAND`` — small requests flowing down the tree (demand-driven model).
* ``CONTROL`` — placement propagation, operator moves, monitoring probes.
* ``BARRIER`` — the global algorithm's change-over coordination messages;
  the paper gives these **queue priority** over enqueued data transfers.

Lower priority value = served first at a host's network interface.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

#: NIC-queue priorities (lower wins).  Barrier beats control beats demand
#: beats bulk data, matching §2.2's "barrier messages get priority".
#: PRIORITY_BACKGROUND is available for traffic that must never delay
#: the pipeline — note that background senders can be starved
#: indefinitely by a busy interface.
PRIORITY_BARRIER = 0
PRIORITY_CONTROL = 1
PRIORITY_DEMAND = 2
PRIORITY_DATA = 3
PRIORITY_BACKGROUND = 4

_message_counter = itertools.count()


class MessageKind(enum.Enum):
    """What a message carries; determines its default priority."""

    DATA = "data"
    DEMAND = "demand"
    CONTROL = "control"
    BARRIER = "barrier"


#: NIC-queue priority of a message whose sender names none.
_DEFAULT_PRIORITIES = {
    MessageKind.DATA: PRIORITY_DATA,
    MessageKind.DEMAND: PRIORITY_DEMAND,
    MessageKind.CONTROL: PRIORITY_CONTROL,
    MessageKind.BARRIER: PRIORITY_BARRIER,
}

#: Wire overhead of a bare message (headers), bytes.
HEADER_BYTES = 256


@dataclass(slots=True)
class Message:
    """A simulated network message.

    ``size`` is the payload size in bytes; the wire size adds header and
    piggybacked-monitoring overhead.  ``payload`` carries structured
    simulation state (image metadata, placement maps, ...) — it is never
    counted toward transfer time except through ``size``.
    """

    kind: MessageKind
    #: Actor identifiers (node ids of the data-flow tree, or engine actors).
    src_actor: str
    dst_actor: str
    #: Payload size in bytes (images: their byte size; demands: 0).
    size: float
    payload: dict[str, Any] = field(default_factory=dict)
    #: NIC-queue priority; defaults from the kind.
    priority: Optional[int] = None
    #: Piggybacked monitoring data, attached by the transport (bytes + entries).
    piggyback: Optional[dict[str, Any]] = None
    #: Owning workload query, stamped by the engine's runtime; ``None``
    #: for single-query runs and engine-internal traffic.
    query_id: Optional[str] = None
    #: Unique id, assigned automatically (strictly increasing).
    uid: int = field(default_factory=_message_counter.__next__)
    #: Filled in by the transport on delivery.
    sent_at: float = float("nan")
    delivered_at: float = float("nan")
    src_host: str = ""
    dst_host: str = ""

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"negative message size {self.size!r}")
        if self.priority is None:
            self.priority = _DEFAULT_PRIORITIES[self.kind]

    @property
    def wire_size(self) -> float:
        """Bytes actually moved on the network for this message."""
        piggyback_bytes = self.piggyback["bytes"] if self.piggyback else 0
        return self.size + HEADER_BYTES + piggyback_bytes

    def __repr__(self) -> str:
        return (
            f"<Message #{self.uid} {self.kind.value} "
            f"{self.src_actor}->{self.dst_actor} {self.size:.0f}B>"
        )
