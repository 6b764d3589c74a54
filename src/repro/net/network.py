"""The network: hosts, links, actor registry and the transfer engine.

Transfer semantics (paper §4):

* every transfer pays a 50 ms startup cost and then drains bytes at the
  link trace's (time-varying) rate;
* both endpoints' single NICs are held for the whole transfer — this is
  what produces **end-point congestion** when several producers feed one
  consumer;
* NIC queueing is by message priority, so barrier/control messages
  overtake queued bulk data;
* the two NICs are acquired in canonical (sorted-name) order, which makes
  the two-resource acquisition deadlock-free while preserving the
  single-interface constraint.

The network also keeps the **actor registry** — the ground-truth location
of every data-flow actor.  Senders address actors at the host they believe
the actor lives on; if the actor has moved (possible with the local
algorithm's eventually-consistent location vectors), the message is
forwarded, paying for the extra hop, as a mobile-object runtime would.
"""

from __future__ import annotations

from bisect import insort
from typing import Callable, Iterable, NamedTuple, Optional

from repro.faults.plan import TransferAbandoned
from repro.net.host import Host
from repro.net.link import Link
from repro.net.message import Message
from repro.obs.events import (
    LINK_TRANSFER,
    MESSAGE_FORWARD,
    MESSAGE_RECV,
    MESSAGE_SEND,
    NET_ABANDON,
    NET_DROP,
    NET_RETRANSMIT,
)
from repro.obs.metrics import RunMetrics
from repro.obs.tracer import ensure_tracer
from repro.sim import URGENT, Environment, Event


class TransferObservation(NamedTuple):
    """What a completed wire transfer looked like (fed to monitors).

    Built once per transfer, so it is a named tuple: immutable and
    compared by value like a frozen dataclass, without the frozen
    ``__init__``'s one ``object.__setattr__`` per field.
    """

    src_host: str
    dst_host: str
    #: Bytes moved on the wire (payload + headers + piggyback).
    wire_bytes: float
    #: Seconds the bytes took *excluding* the startup cost.
    data_seconds: float
    started: float
    finished: float
    #: Owning workload query (None for single-query runs / shared traffic).
    query_id: Optional[str] = None

    @property
    def measured_bandwidth(self) -> float:
        """Observed application-level bandwidth, bytes/second."""
        if self.data_seconds <= 0:
            return float("inf")
        return self.wire_bytes / self.data_seconds


class Network:
    """A complete graph of hosts with trace-driven links."""

    def __init__(self, env: Environment, tracer=None) -> None:
        self.env = env
        self._tracer = ensure_tracer(tracer)
        self.hosts: dict[str, Host] = {}
        self._links: dict[tuple[str, str], Link] = {}
        #: The actor registry, actor -> host.  Read it directly on hot
        #: paths; change it only through :meth:`register_actor` and
        #: :meth:`move_actor`, which keep :attr:`actor_epoch` in step.
        #: Throwaway endpoints (probes, state transfers) stay out of it:
        #: a message to an unregistered actor is delivered at its
        #: arrival host.
        self.actor_hosts: dict[str, str] = {}
        #: Actor-registry epoch: bumped whenever a registered actor
        #: changes host, so anything derived from actor locations can be
        #: cached until the epoch moves.
        self.actor_epoch = 0
        #: The traffic ledger: one :class:`RunMetrics` per
        #: ``Message.query_id``.  The row under ``None`` counts untagged
        #: traffic, which is the whole run in a single-query simulation.
        #: Each event updates exactly one row, so the rows partition the
        #: traffic; a query's runtime counts into the same row (see
        #: :attr:`repro.engine.runtime.Runtime.metrics`).  The per-link
        #: and per-class view lives in the fleet metrics sink.
        self.query_stats: dict[Optional[str], RunMetrics] = {}
        #: Transfer arbiter state: waiting transfers (a list kept sorted
        #: by ``(priority, sequence)``), per-host active-transfer counts,
        #: and a FIFO tie-breaker.
        self._waiting: list[tuple] = []
        self._active_transfers: dict[str, int] = {}
        #: NIC capacities, cached flat at registration (hosts never change
        #: capacity after construction) so the dispatch loop's per-entry
        #: check is two dict lookups instead of four plus attribute hops.
        self._nic_caps: dict[str, int] = {}
        self._sequence = 0
        #: True when NIC capacity has been released since the last full
        #: dispatch scan.  While False, every queued transfer is still
        #: blocked (capacity only shrinks between scans), so :meth:`send`
        #: may start/queue its one new message without rescanning the queue.
        self._scan_needed = False
        #: Monitoring hook: called with each TransferObservation.
        self.observers: list[Callable[[TransferObservation], None]] = []
        #: Optional piggyback source: ``(src_host, dst_host) -> dict`` with
        #: at least a ``"bytes"`` entry; attached to outgoing messages.
        self.piggyback_source: Optional[Callable[[str, str], Optional[dict]]] = None
        #: Optional piggyback sink:
        #: ``(dst_host, piggyback_dict, query_id) -> None``.
        self.piggyback_sink: Optional[
            Callable[[str, dict, Optional[str]], None]
        ] = None
        #: Fault injector (see :meth:`install_faults`).  None (the
        #: default) keeps transfers on the exact unfaulted code path.
        self._faults = None

    def install_faults(self, injector) -> None:
        """Route transfers through ``injector``'s outage/loss/retry model."""
        self._faults = injector

    def stats_for(self, query_id: Optional[str]) -> RunMetrics:
        """The ledger row of ``query_id`` (created at zero; ``None`` is
        untagged traffic)."""
        stats = self.query_stats.get(query_id)
        if stats is None:
            stats = self.query_stats[query_id] = RunMetrics()
        return stats

    # -- topology ---------------------------------------------------------
    def add_host(self, host: Host) -> Host:
        """Register a host (names must be unique)."""
        if host.name in self.hosts:
            raise ValueError(f"duplicate host {host.name!r}")
        self.hosts[host.name] = host
        self._active_transfers[host.name] = 0
        self._nic_caps[host.name] = host.nic_capacity
        return host

    def add_link(self, link: Link) -> Link:
        """Register the link between two existing hosts."""
        for endpoint in link.key:
            if endpoint not in self.hosts:
                raise ValueError(f"link endpoint {endpoint!r} is not a host")
        if link.key in self._links:
            raise ValueError(f"duplicate link {link.key!r}")
        self._links[link.key] = link
        return link

    def link(self, a: str, b: str) -> Link:
        """The link between hosts ``a`` and ``b``."""
        key = (a, b) if a < b else (b, a)
        try:
            return self._links[key]
        except KeyError:
            raise KeyError(f"no link between {a!r} and {b!r}") from None

    def links(self) -> Iterable[Link]:
        """All links, in canonical key order."""
        return [self._links[key] for key in sorted(self._links)]

    def mean_bandwidth(self, a: str, b: str, t0: float, t1: float) -> float:
        """True time-averaged bandwidth over ``[t0, t1]`` (oracle access)."""
        if t0 < 0:
            raise ValueError(f"negative window start {t0!r}")
        if t1 < t0:
            raise ValueError(f"window end {t1!r} precedes start {t0!r}")
        if a == b:
            return float("inf")
        return self.link(a, b).trace.mean_rate(t0, t1)

    # -- actor registry ------------------------------------------------------
    def register_actor(self, actor: str, host: str) -> None:
        """Declare that ``actor`` (a tree-node process) lives on ``host``."""
        if host not in self.hosts:
            raise ValueError(f"unknown host {host!r}")
        if self.actor_hosts.get(actor, host) != host:
            self.actor_epoch += 1
        self.actor_hosts[actor] = host

    def actor_host(self, actor: str) -> str:
        """Ground-truth current host of ``actor``."""
        try:
            return self.actor_hosts[actor]
        except KeyError:
            raise KeyError(f"actor {actor!r} is not registered") from None

    def move_actor(self, actor: str, new_host: str) -> list[Message]:
        """Atomically re-home ``actor``; returns messages left at the old host.

        The caller (the engine's relocation machinery) is responsible for
        re-delivering the returned messages at the new location.  This is
        the only path that replaces a registered actor's mailbox, and a
        real move bumps :attr:`actor_epoch`, so a mailbox cached until the
        epoch moves is never a detached one.
        """
        old_host = self.actor_host(actor)
        if new_host not in self.hosts:
            raise ValueError(f"unknown host {new_host!r}")
        self.actor_hosts[actor] = new_host
        if old_host == new_host:
            return []
        self.actor_epoch += 1
        return self.hosts[old_host].remove_mailbox(actor)

    # -- transfers -------------------------------------------------------------
    def send(
        self,
        message: Message,
        src_host: Optional[str] = None,
        dst_host: Optional[str] = None,
    ) -> "Event":
        """Start transmitting ``message``; the returned event fires on delivery.

        ``src_host`` / ``dst_host`` default to the registry locations of
        the source / destination actors.  If the destination actor has
        moved by the time the message arrives, it is forwarded (charged as
        an additional transfer).

        Transfers are scheduled by a central arbiter: a transfer starts as
        soon as **both** endpoints' network interfaces are free, and when
        an interface frees up the waiting transfers are scanned in
        (priority, arrival) order.  This realizes the paper's single-NIC
        assumption with priority queueing (barrier messages overtake
        enqueued data) and is trivially deadlock-free — a transfer never
        holds one interface while waiting for the other.
        """
        return self._send(message, src_host, dst_host, self.env.event())

    def post(
        self,
        message: Message,
        src_host: Optional[str] = None,
        dst_host: Optional[str] = None,
    ) -> None:
        """Fire-and-forget :meth:`send`: no delivery event is created.

        Most traffic (data, demands, barriers) never waits on delivery —
        the sender continues immediately and the ``done`` event fires
        with zero callbacks, a pure-waste calendar entry.  Posting skips
        it.  Eliding a no-op event cannot reorder anything: remaining
        calendar entries keep their relative order, and processing the
        elided event ran no callbacks.
        """
        self._send(message, src_host, dst_host, None)

    def _send(
        self,
        message: Message,
        src_host: Optional[str],
        dst_host: Optional[str],
        done: "Optional[Event]",
    ) -> "Optional[Event]":
        src = src_host or self.actor_host(message.src_actor)
        dst = dst_host or self.actor_host(message.dst_actor)
        if src not in self.hosts or dst not in self.hosts:
            raise ValueError(f"unknown endpoint in {src!r}->{dst!r}")
        message.src_host, message.dst_host = src, dst
        message.sent_at = now = self.env.now

        tracer = self._tracer
        if src == dst:
            self.stats_for(message.query_id).local_deliveries += 1
            if tracer.enabled:
                self._trace_send(tracer, message, "local")
            message.delivered_at = now
            self._deliver(message, dst)
            if done is not None:
                done.succeed(message)
            return done

        if self.piggyback_source is not None and message.piggyback is None:
            message.piggyback = self.piggyback_source(src, dst)

        if tracer.enabled:
            self._trace_send(tracer, message, "wire")
        self._sequence += 1
        if not self._scan_needed:
            # Fast path: no NIC has been released since the last full
            # scan, so every queued transfer is still blocked and only
            # *this* message can possibly start.  Starting (or queueing)
            # it directly is order-identical to the full scan: a queued
            # higher-priority transfer either shares the endpoint that
            # blocks this one, or was blocked on endpoints this message
            # doesn't touch.
            active = self._active_transfers
            caps = self._nic_caps
            if active[src] < caps[src] and active[dst] < caps[dst]:
                active[src] += 1
                active[dst] += 1
                self._start_transfer(message, src, dst, done)
            else:
                insort(
                    self._waiting,
                    (
                        int(message.priority or 0),
                        self._sequence,
                        message,
                        src,
                        dst,
                        done,
                    ),
                )
            return done
        insort(
            self._waiting,
            (int(message.priority or 0), self._sequence, message, src, dst, done),
        )
        self._dispatch_transfers()
        return done

    def _dispatch_transfers(self) -> None:
        """Start every waiting transfer whose two endpoints are free.

        One walk over the sorted queue in ``(priority, sequence)`` order,
        deleting each entry it starts — the same start order a heap
        drain would give, since the sequence number is unique.  This
        full scan is the arbiter's slow path; it re-arms :meth:`send`'s
        fast path by clearing ``_scan_needed``.
        """
        self._scan_needed = False
        waiting = self._waiting
        active = self._active_transfers
        caps = self._nic_caps
        i = 0
        while i < len(waiting):
            __, __, message, src, dst, done = waiting[i]
            if active[src] >= caps[src] or active[dst] >= caps[dst]:
                i += 1
                continue
            del waiting[i]
            active[src] += 1
            active[dst] += 1
            self._start_transfer(message, src, dst, done)

    def _start_transfer(self, message: Message, src: str, dst: str, done) -> None:
        """Launch an admitted transfer (both endpoint NICs already held).

        The paper's core quantity — time to push N bytes over a
        time-varying link — is computable analytically from the trace's
        prefix sums, so a transfer needs no generator machinery.  Without
        an injector, completion is **one** callback event.  Under an
        injector the transfer is a chain of callbacks, one per attempt
        (:meth:`_attempt`), started by an URGENT launch callback.
        """
        env = self.env
        faults = self._faults
        if faults is None:
            link = self.link(src, dst)
            started = env.now
            duration = link.transmission_time(message.wire_size, started)
            env.schedule_callback(
                duration,
                lambda: self._finish_transfer(
                    message, src, dst, done, link, started, duration
                ),
            )
            return
        # The URGENT launch takes the calendar slot of a generator
        # process's init event, and each attempt schedules its successor
        # where that process schedules its Timeout, so every calendar
        # rank and same-instant tie matches the process schedule
        # (tests/oracles/full_des.py).  Running attempt 1 inline would
        # reorder those ties.
        link = self.link(src, dst)
        env.schedule_callback(
            0.0,
            lambda: self._attempt(message, src, dst, done, link, 1),
            priority=URGENT,
        )

    def _attempt(
        self,
        message: Message,
        src: str,
        dst: str,
        done,
        link: Link,
        attempt: int,
    ) -> None:
        """Run attempt number ``attempt`` of a transfer under the fault plan.

        A clean attempt schedules :meth:`_finish_transfer` after its
        transmission time.  A blocked or lost attempt either schedules
        the next attempt after its backoff, or — once the retry budget
        runs out — abandons the message: both NICs are released and
        ``done`` fails with
        :class:`~repro.faults.plan.TransferAbandoned`, defused so that
        fire-and-forget sends lose the message without crashing the run.

        Both NICs stay held across retries and backoffs — a
        retransmitting endpoint is genuinely busy, and a single arbiter
        slot keeps the schedule deterministic.  An attempt is never
        interrupted mid-flight: fault windows are consulted only when an
        attempt starts.
        """
        env = self.env
        faults = self._faults
        retry = faults.retry
        tracer = self._tracer
        query_id = message.query_id
        wire_size = message.wire_size
        now = env.now
        reason = faults.link_blocked(src, dst, now)
        if reason is None:
            duration = link.transmission_time(wire_size, now)
            if not faults.drop_message(src, dst):
                env.schedule_callback(
                    duration,
                    lambda: self._finish_transfer(
                        message, src, dst, done, link, now, duration
                    ),
                )
                return
            # Lost in flight: the bytes went on the wire and vanished.
            # Pay the send time, then back off and retransmit.
            self.stats_for(query_id).dropped_bytes += wire_size
            if tracer.enabled:
                fields = {
                    "src_host": src,
                    "dst_host": dst,
                    "uid": message.uid,
                    "bytes": wire_size,
                }
                if query_id is not None:
                    fields["query_id"] = query_id
                tracer.emit(NET_DROP, now, fields)
            reason = "loss"
            wait = duration + retry.backoff_delay(attempt)
        else:
            wait = retry.backoff_delay(attempt)
        if retry.max_attempts is not None and attempt >= retry.max_attempts:
            self.stats_for(query_id).abandoned_messages += 1
            if tracer.enabled:
                fields = {
                    "src_host": src,
                    "dst_host": dst,
                    "uid": message.uid,
                    "attempts": attempt,
                    "reason": reason,
                }
                if query_id is not None:
                    fields["query_id"] = query_id
                tracer.emit(NET_ABANDON, now, fields)
            self._active_transfers[src] -= 1
            self._active_transfers[dst] -= 1
            self._scan_needed = True
            if done is not None:
                done.defused = True
                done.fail(
                    TransferAbandoned(
                        f"message #{message.uid} {src}->{dst} abandoned "
                        f"after {attempt} attempts ({reason})"
                    )
                )
            self._dispatch_transfers()
            return
        self.stats_for(query_id).retransmissions += 1
        if tracer.enabled:
            fields = {
                "src_host": src,
                "dst_host": dst,
                "uid": message.uid,
                "attempt": attempt,
                "reason": reason,
                "wait": wait,
            }
            if query_id is not None:
                fields["query_id"] = query_id
            tracer.emit(NET_RETRANSMIT, now, fields)
        env.schedule_callback(
            wait,
            lambda: self._attempt(message, src, dst, done, link, attempt + 1),
        )

    def _finish_transfer(
        self,
        message: Message,
        src: str,
        dst: str,
        done,
        link: Link,
        started: float,
        duration: float,
    ) -> None:
        """Complete an in-flight transfer: the post-wire half of the
        transfer engine, shared verbatim by the callback paths and the
        generator reference schedule in ``tests/oracles/full_des.py`` so
        they stay bookkeeping-identical — the query's ledger row, tracer
        span, observers, piggyback, delivery, ``done``, then the arbiter
        rescan, in exactly that order.  With nothing queued the rescan
        would start nothing, so only its flag reset runs.
        """
        wire_size = message.wire_size
        finished = self.env.now

        self._active_transfers[src] -= 1
        self._active_transfers[dst] -= 1
        # Capacity was just released: any send before the trailing full
        # scan (e.g. a forward out of _deliver) must rescan the queue.
        self._scan_needed = True

        query_id = message.query_id
        row = self.stats_for(query_id)
        row.transfers += 1
        row.bytes_on_wire += wire_size

        observation = TransferObservation(
            src, dst, wire_size, duration - link.startup_cost,
            started, finished, query_id,
        )
        tracer = self._tracer
        if tracer.enabled:
            fields = {
                "src_host": src,
                "dst_host": dst,
                "kind": message.kind._value_,
                "wire_bytes": wire_size,
                "bandwidth": observation.measured_bandwidth,
                "uid": message.uid,
            }
            if query_id is not None:
                fields["query_id"] = query_id
            tracer.span(LINK_TRANSFER, started, finished, fields)
            tracer.observe("link.transfer_seconds", duration)

        for observer in self.observers:
            observer(observation)
        if self.piggyback_sink is not None and message.piggyback is not None:
            self.piggyback_sink(dst, message.piggyback, query_id)

        message.delivered_at = finished
        self._deliver(message, dst)
        if done is not None:
            done.succeed(message)
        if self._waiting:
            self._dispatch_transfers()
        else:
            # Nothing queued: the full scan would only clear the flag.
            self._scan_needed = False

    def _trace_send(self, tracer, message: Message, transport: str) -> None:
        # ``_value_`` is the kind's string without the Enum ``value``
        # descriptor; a traced message reads it at each of its records.
        fields = {
            "transport": transport,
            "uid": message.uid,
            "kind": message.kind._value_,
            "src_actor": message.src_actor,
            "dst_actor": message.dst_actor,
            "src_host": message.src_host,
            "dst_host": message.dst_host,
            "bytes": message.size,
        }
        if message.query_id is not None:
            fields["query_id"] = message.query_id
        tracer.emit(MESSAGE_SEND, self.env.now, fields)

    def _deliver(self, message: Message, arrived_at: str) -> None:
        actual = self.actor_hosts.get(message.dst_actor)
        tracer = self._tracer
        if actual is not None and actual != arrived_at:
            # The destination actor moved while the message was in flight:
            # forward it (mobile-object runtimes do exactly this).
            self.stats_for(message.query_id).forwarded_messages += 1
            if tracer.enabled:
                fields = {
                    "uid": message.uid,
                    "actor": message.dst_actor,
                    "from_host": arrived_at,
                    "to_host": actual,
                }
                if message.query_id is not None:
                    fields["query_id"] = message.query_id
                tracer.emit(MESSAGE_FORWARD, self.env.now, fields)
            self.send(message, src_host=arrived_at, dst_host=actual)
            return
        if tracer.enabled:
            fields = {
                "uid": message.uid,
                "actor": message.dst_actor,
                "host": arrived_at,
                "kind": message.kind._value_,
            }
            if message.query_id is not None:
                fields["query_id"] = message.query_id
            tracer.emit(MESSAGE_RECV, self.env.now, fields)
        if actual is not None:
            # Unregistered endpoints (probes, probe control, operator
            # state) are throwaway: their delivery event is all anyone
            # waits for, so they get no mailbox.
            self.hosts[arrived_at].mailbox(message.dst_actor).deliver(message)
