"""Actor processes: one per tree node.

The computation is a demand-driven data-flow pipeline (§2):

* every node holds its output until its consumer requests it;
* an operator requests data from its producers only after dispatching its
  output (so there is a **relocation window** — the light-move
  requirement — between dispatch and the next request);
* demands flowing down the tree carry the local algorithm's "later" marks
  and the sender's critical-path status; data flowing up carries the
  image bytes.

Message payloads use a ``type`` key: ``demand``, ``data``, ``prepare``,
``report``, ``commit`` (the last three implement the global algorithm's
barrier change-over).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.dataflow.tree import CLIENT_ID, TreeNode
from repro.engine.config import Algorithm
from repro.engine.runtime import Runtime
from repro.net.message import Message, MessageKind
from repro.obs.events import BARRIER_SUSPEND, COMPUTE


class ActorBase:
    """Common plumbing for tree-node actors."""

    def __init__(self, runtime: Runtime, node: TreeNode) -> None:
        self.runtime = runtime
        self.node = node
        self.actor_id = node.node_id
        #: Network-registry name, resolved once; the registry and host
        #: table are the network's own dicts, read once per question.
        self.net_id = runtime.net_id(self.actor_id)
        network = runtime.network
        self._network = network
        self._actor_hosts = network.actor_hosts
        self._hosts = network.hosts
        #: Mailbox read at ``_mailbox_epoch`` of the actor registry; only
        #: a move (which bumps the epoch) can replace it.
        self._mailbox = None
        self._mailbox_epoch = -1
        #: Believed node->host map for the coordinated (non-local)
        #: algorithms; replaced wholesale at a barrier switch.
        self.view_placement: dict[str, str] = runtime.initial_placement.as_dict()
        #: Pending barrier switch: (switch_iteration, placement dict).
        self.switch_plan: Optional[tuple[int, dict[str, str]]] = None
        self._seen_plans: set[int] = set()

    # -- location beliefs ------------------------------------------------------
    def my_host(self) -> str:
        """Ground-truth current host of this actor."""
        return self._actor_hosts[self.net_id]

    def my_host_obj(self):
        """The :class:`~repro.net.host.Host` this actor runs on."""
        return self._hosts[self._actor_hosts[self.net_id]]

    def peer_host(self, actor: str) -> str:
        """Where this actor believes ``actor`` lives."""
        runtime = self.runtime
        pinned = runtime.pinned_hosts.get(actor)
        if pinned is not None:
            return pinned
        if runtime.carries_vectors:
            return runtime.vectors[self.my_host()].location_of(actor)
        return self.view_placement[actor]

    def mailbox(self):
        """The mailbox this actor reads at its current host."""
        epoch = self._network.actor_epoch
        if epoch != self._mailbox_epoch:
            net_id = self.net_id
            self._mailbox = self._hosts[self._actor_hosts[net_id]].mailbox(net_id)
            self._mailbox_epoch = epoch
        return self._mailbox

    # -- sending ---------------------------------------------------------------
    def send_demand(
        self, producer: str, iteration: int, later: bool, critical: bool
    ) -> None:
        """Demand one partition from a producer (flows down the tree)."""
        self.runtime.send(
            MessageKind.DEMAND,
            self.actor_id,
            producer,
            size=0,
            payload={
                "type": "demand",
                "iteration": iteration,
                "later": later,
                "critical": critical,
            },
            dst_host=self.peer_host(producer),
        )

    def send_data(self, consumer: str, iteration: int, nbytes: float) -> None:
        """Ship a partition to the consumer (flows up the tree)."""
        self.runtime.send(
            MessageKind.DATA,
            self.actor_id,
            consumer,
            size=nbytes,
            payload={"type": "data", "iteration": iteration, "bytes": nbytes},
            dst_host=self.peer_host(consumer),
        )

    def send_barrier(
        self, dst_actor: str, payload: dict[str, Any], dst_host: Optional[str] = None
    ) -> None:
        """Send a barrier-protocol message (priority per configuration)."""
        self.runtime.send(
            MessageKind.BARRIER,
            self.actor_id,
            dst_actor,
            size=0,
            payload=payload,
            dst_host=dst_host or self.peer_host(dst_actor),
            priority=self.runtime.barrier_msg_priority(),
        )


class ServerActor(ActorBase):
    """A data server: reads images from disk and serves demands in order."""

    def __init__(self, runtime: Runtime, node: TreeNode, server_index: int) -> None:
        super().__init__(runtime, node)
        self.server_index = server_index
        self.consumer = node.parent
        #: (iteration, size) of the image currently held in memory.
        self.held: Optional[tuple[int, float]] = None
        #: Number of partitions served so far == next iteration to serve.
        self.served_count = 0
        #: Suspended between a barrier PREPARE and its COMMIT (§2.2).
        self.suspended = False
        self._suspended_at: Optional[float] = None
        self._buffered_demands: list[Message] = []

    def image_size(self, iteration: int) -> float:
        return self.runtime.workload.size_of(self.server_index, iteration)

    def run(self):
        """Main process: prefetch image 0, then serve demands forever."""
        yield from self._read(0)
        carries_vectors = self.runtime.carries_vectors
        while True:
            message = yield self.mailbox().get()
            if carries_vectors:
                self.runtime.ingest_vectors(message, self.my_host())
            yield from self._handle(message)

    def _handle(self, message: Message):
        mtype = message.payload["type"]
        if mtype == "demand":
            if self.suspended:
                self._buffered_demands.append(message)
            else:
                yield from self._serve(message.payload["iteration"])
        elif mtype == "prepare":
            self._handle_prepare(message.payload)
        elif mtype == "commit":
            yield from self._handle_commit(message.payload)
        # other message types (stray probes etc.) are ignored

    def _read(self, iteration: int):
        if iteration >= self.runtime.num_images:
            return
        size = self.image_size(iteration)
        yield from self.my_host_obj().disk_read(size)
        self.held = (iteration, size)

    def _serve(self, iteration: int):
        if self.held is None or self.held[0] != iteration:
            # Defensive: demand-driven flow is in-order, but a change-over
            # replay could re-request the held image.
            yield from self._read(iteration)
        assert self.held is not None
        if self.switch_plan is not None and iteration >= self.switch_plan[0]:
            placement = self.switch_plan[1]
            self.view_placement = placement
            self.switch_plan = None
            target = placement[self.actor_id]
            if target != self.my_host():
                # Replica switch: the dataset already lives at the target
                # (replication), so only the serving actor relocates.
                yield from self.runtime.relocate(self.actor_id, target)
        __, size = self.held
        self.send_data(self.consumer, iteration, size)
        self.held = None
        self.served_count = iteration + 1
        yield from self._read(iteration + 1)

    def _handle_prepare(self, payload: dict[str, Any]) -> None:
        plan_seq = payload["plan_seq"]
        if plan_seq in self._seen_plans:
            return
        self._seen_plans.add(plan_seq)
        self.suspended = True
        self._suspended_at = self.runtime.env.now
        self.send_barrier(
            CLIENT_ID,
            {
                "type": "report",
                "plan_seq": plan_seq,
                "server": self.actor_id,
                "next_iteration": self.served_count,
            },
            dst_host=self.runtime.pinned_hosts[CLIENT_ID],
        )

    def _handle_commit(self, payload: dict[str, Any]):
        self.switch_plan = (payload["switch_iteration"], payload["placement"])
        self.suspended = False
        tracer = self.runtime.tracer
        if tracer.enabled and self._suspended_at is not None:
            tracer.span(
                BARRIER_SUSPEND,
                self._suspended_at,
                self.runtime.env.now,
                {"actor": self.actor_id, "plan_seq": payload["plan_seq"]},
            )
        self._suspended_at = None
        buffered, self._buffered_demands = self._buffered_demands, []
        for message in buffered:
            yield from self._serve(message.payload["iteration"])


class OperatorActor(ActorBase):
    """A combination operator: composes two inputs, may relocate itself."""

    def __init__(self, runtime: Runtime, node: TreeNode) -> None:
        super().__init__(runtime, node)
        self.producers = list(node.children)
        self.consumer = node.parent
        #: iteration -> {producer: bytes} for inputs still being collected.
        self.inputs: dict[int, dict[str, float]] = {}
        #: iteration -> the producer whose data arrived second ("later").
        self.later_producer: dict[int, str] = {}
        #: (iteration, size) of the composed output being held.
        self.held: Optional[tuple[int, float]] = None
        self.pending_demand: Optional[int] = None
        #: Next iteration whose inputs have NOT yet been requested.
        self.next_request = 0
        # Local-algorithm state (§2.3).
        self.dispatches_in_epoch = 0
        self.later_marks_in_epoch = 0
        self.consumer_critical = False
        self.on_critical_path = False
        self.pending_move: Optional[str] = None
        runtime.operators[self.actor_id] = self

    def run(self):
        """Main process: prime the pipeline, then react to messages."""
        if self.runtime.spec.prefetch:
            self._request_inputs(0)
        carries_vectors = self.runtime.carries_vectors
        while True:
            message = yield self.mailbox().get()
            if carries_vectors:
                self.runtime.ingest_vectors(message, self.my_host())
            yield from self._handle(message)

    def _handle(self, message: Message):
        mtype = message.payload["type"]
        if mtype == "data":
            yield from self._handle_data(message)
        elif mtype == "demand":
            yield from self._handle_demand(message)
        elif mtype == "prepare":
            self._handle_prepare(message.payload)
        elif mtype == "commit":
            yield from self._handle_commit(message.payload)

    # -- data path ------------------------------------------------------------
    def _handle_data(self, message: Message):
        iteration = message.payload["iteration"]
        producer = self.runtime.local_id(message.src_actor)
        bucket = self.inputs.setdefault(iteration, {})
        if bucket:
            # Second arrival: this producer was the later one (§2.3).
            self.later_producer[iteration] = producer
        bucket[producer] = message.payload["bytes"]
        if len(bucket) < len(self.producers):
            return
        sizes = [bucket[p] for p in self.producers]
        del self.inputs[iteration]
        compose = self.runtime.compose
        started = self.runtime.env.now
        yield from self.my_host_obj().compute(compose.compute_seconds(*sizes))
        tracer = self.runtime.tracer
        if tracer.enabled:
            tracer.span(
                COMPUTE,
                started,
                self.runtime.env.now,
                {
                    "actor": self.actor_id,
                    "host": self.my_host(),
                    "iteration": iteration,
                },
            )
        self.held = (iteration, compose.output_size(*sizes))
        if self.pending_demand == iteration:
            yield from self._dispatch()

    def _handle_demand(self, message: Message):
        payload = message.payload
        iteration = payload["iteration"]
        self.consumer_critical = payload["critical"]
        if payload["later"]:
            self.later_marks_in_epoch += 1
        self.pending_demand = iteration
        if self.held is not None and self.held[0] == iteration:
            yield from self._dispatch()
        elif not self.runtime.spec.prefetch and self.next_request <= iteration:
            self._request_inputs(iteration)

    def _dispatch(self):
        assert self.held is not None
        iteration, size = self.held
        self.send_data(self.consumer, iteration, size)
        self.held = None
        self.pending_demand = None
        self.dispatches_in_epoch += 1

        # ---- the relocation window (light-move requirement, §2) ----
        if (
            self.switch_plan is not None
            and iteration + 1 >= self.switch_plan[0]
        ):
            yield from self._apply_switch()
        if self.pending_move is not None:
            target, self.pending_move = self.pending_move, None
            if target != self.my_host():
                yield from self.runtime.relocate(self.actor_id, target)
        # ---- end of window: request the next partition ----
        if self.runtime.spec.prefetch and iteration + 1 < self.runtime.num_images:
            self._request_inputs(iteration + 1)

    def _request_inputs(self, iteration: int) -> None:
        later = self.later_producer.pop(iteration - 1, None)
        critical = (
            self.on_critical_path
            if self.runtime.spec.algorithm is Algorithm.LOCAL
            else True
        )
        for producer in self.producers:
            self.send_demand(
                producer, iteration, later=(producer == later), critical=critical
            )
        self.next_request = iteration + 1

    # -- barrier protocol -------------------------------------------------------
    def _handle_prepare(self, payload: dict[str, Any]) -> None:
        plan_seq = payload["plan_seq"]
        if plan_seq in self._seen_plans:
            return
        self._seen_plans.add(plan_seq)
        for producer in self.producers:
            self.send_barrier(producer, dict(payload))

    def _handle_commit(self, payload: dict[str, Any]):
        self.switch_plan = (payload["switch_iteration"], payload["placement"])
        if self.next_request >= self.switch_plan[0]:
            # Already requested inputs at/past the switch point under the
            # old placement: move now; in-flight data is forwarded.
            yield from self._apply_switch()

    def _apply_switch(self):
        assert self.switch_plan is not None
        __, placement = self.switch_plan
        self.switch_plan = None
        self.view_placement = placement
        target = placement[self.actor_id]
        if target != self.my_host():
            yield from self.runtime.relocate(self.actor_id, target)


class ClientActor(ActorBase):
    """The client: demands composed partitions and records arrivals."""

    def __init__(self, runtime: Runtime, node: TreeNode) -> None:
        super().__init__(runtime, node)
        self.root = node.children[0]
        self.received = 0

    def run(self):
        """Demand partitions one at a time; route barrier reports."""
        self._demand(0)
        carries_vectors = self.runtime.carries_vectors
        while self.received < self.runtime.num_images:
            message = yield self.mailbox().get()
            if carries_vectors:
                self.runtime.ingest_vectors(message, self.my_host())
            payload = message.payload
            mtype = payload["type"]
            if mtype == "data":
                self._handle_data(payload)
            elif mtype == "report":
                self.runtime.note_report(
                    payload["plan_seq"], payload["server"], payload["next_iteration"]
                )
            elif mtype == "commit":
                self.switch_plan = (
                    payload["switch_iteration"],
                    payload["placement"],
                )

    def _handle_data(self, payload: dict[str, Any]) -> None:
        iteration = payload["iteration"]
        self.received += 1
        self.runtime.note_arrival(iteration, self.runtime.env.now)
        nxt = iteration + 1
        if nxt < self.runtime.num_images and not self.runtime.cancelled:
            self._demand(nxt)

    def _demand(self, iteration: int) -> None:
        if self.switch_plan is not None and iteration >= self.switch_plan[0]:
            self.view_placement = self.switch_plan[1]
            self.switch_plan = None
        # The client is the root of the recursion: it is always on the
        # critical path, and its single producer is always the "later"
        # (i.e. latest) one.
        self.send_demand(self.root, iteration, later=True, critical=True)
