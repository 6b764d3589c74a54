"""The run-trace event taxonomy.

Every trace record is a flat JSON-serializable dict with at least a
``"type"`` (one of the constants below) and a ``"t"`` (simulation time in
seconds).  *Span* events additionally carry ``"dur"`` (seconds); *point*
events do not.  The remaining fields are type-specific and documented
here; exporters and the summarizer rely only on the fields listed.

Point events
------------

``message.send``
    A message handed to the transport.  Fields: ``uid``, ``kind``,
    ``src_actor``, ``dst_actor``, ``src_host``, ``dst_host``, ``bytes``
    (payload size) and ``transport`` (``"wire"`` or ``"local"``).
``message.recv``
    Final delivery into the destination actor's mailbox.  Fields:
    ``uid``, ``actor``, ``host``, ``kind``.
``message.forward``
    The destination actor moved while the message was in flight; the
    message pays for another hop.  Fields: ``uid``, ``actor``,
    ``from_host``, ``to_host``.
``relocation``
    One actor move (operator, or replica-switching server).  Fields:
    ``actor``, ``old_host``, ``new_host``, ``state_bytes``.
``planner.run``
    A controller executed one planning round (this is the event
    :attr:`~repro.obs.metrics.RunMetrics.planner_runs` counts).
    Fields: ``algorithm`` and, for the local algorithm, ``actor``.
``planner.search``
    One invocation of a :class:`~repro.placement.base.Planner`'s search
    (the global controller may search several times per planning round).
    Fields: ``algorithm``, ``rounds``, ``candidates``, ``links``,
    ``cost``.
``placement.install``
    The global controller committed a new placement.  Fields:
    ``plan_seq``, ``moves`` (actors whose host changes).
``monitor.estimate``
    A bandwidth-estimate query answered from a host's cache.  Fields:
    ``viewer``, ``a``, ``b``, ``quality`` (``"fresh"``/``"stale"``/
    ``"default"``), ``age``.
``monitor.passive``
    A passive measurement recorded from a large-enough transfer.
    Fields: ``a``, ``b``, ``bandwidth``.
``monitor.probe``
    One active probe message sent.  Fields: ``a``, ``b``, ``bytes``.
``monitor.probe_result``
    The (multi-sample averaged) outcome of an active probe.  Fields:
    ``a``, ``b``, ``bandwidth``, ``samples``.
``monitor.piggyback``
    Piggybacked cache entries merged at a receiving host.  Fields:
    ``host``, ``merged``.
``arrival``
    A composed image reached the client.  Fields: ``iteration``.
``net.retransmit``
    A transfer attempt failed (outage, crashed endpoint, or loss) and
    will be retried after a backoff.  Fields: ``src_host``, ``dst_host``,
    ``uid``, ``attempt`` (1-based failed attempt), ``reason``
    (``"outage"``/``"host-down"``/``"loss"``), ``wait`` (seconds until
    the next attempt).
``net.drop``
    A transfer attempt's bytes went on the wire and were lost.  Fields:
    ``src_host``, ``dst_host``, ``uid``, ``bytes``.
``net.abandon``
    A transfer exhausted its retry budget; the message is dropped and
    the delivery event fails with ``TransferAbandoned``.  Fields:
    ``src_host``, ``dst_host``, ``uid``, ``attempts``, ``reason``.
``relocation.abort``
    A two-phase relocation rolled back to the source placement.  Fields:
    ``actor``, ``old_host``, ``new_host``, ``reason``
    (``"destination-down"``/``"timeout"``/``"transfer-abandoned"``).
``fault.link_down`` / ``fault.link_up``
    A planned link outage window opened / closed.  Fields: ``a``, ``b``
    (canonical pair); ``fault.link_up`` adds ``outage`` (window seconds).
``fault.host_down`` / ``fault.host_up``
    A planned host crash window opened / closed.  Fields: ``host``;
    ``fault.host_up`` adds ``downtime`` (window seconds) — this is the
    increment :attr:`~repro.obs.metrics.RunMetrics.
    host_downtime_seconds` accumulates.
``monitor.probe_timeout``
    An active probe sample produced no measurement.  Fields: ``a``,
    ``b``, ``reason`` (``"blackout"``/``"timeout"``/``"abandoned"``).
``planner.fallback``
    A controller declined to plan on a degraded monitoring view and fell
    back.  Fields: ``algorithm``, ``mode`` (``"last-known-good"``/
    ``"download-all"``/``"skip-down-host"``) and optionally ``coverage``
    or ``actor``.
``run.meta``
    First event of a run: ``algorithm``, ``num_servers``, ``images``,
    ``tree_shape``, ``hosts``.  Workload queries add ``query_class``;
    a class with an SLO target adds ``slo`` (seconds) and a query
    rerouted by an open circuit breaker adds ``degraded: true``.
``run.end``
    Last event of a run: ``truncated``, ``images_delivered``,
    ``completion_time``.
``query.shed``
    The admission controller rejected a query at arrival (concurrency
    and queue limits exhausted, or the seeded shed coin fired).  Fields:
    ``query_class``, ``attempt`` (0 for first submissions, the retry
    number otherwise).
``query.queued``
    A query arrived while the fleet was at its concurrency limit and
    joined the admission queue.  Fields: ``query_class``, ``depth``
    (queue depth after the enqueue — its running max is the summary's
    ``queue_peak``).
``query.deadline_abort``
    A query exceeded its class deadline and was aborted (its pipeline
    drains through the cooperative cancellation path).  Fields:
    ``query_class``, ``deadline``, ``waited`` (seconds since arrival),
    ``launched`` (false when the query expired while still queued).
``query.retry``
    An aborted query will be resubmitted after a backoff, charged to
    its client's retry budget.  Fields: ``query_class``, ``attempt``
    (1-based retry number), ``wait`` (backoff seconds).
``retry.budget_exhausted``
    An aborted query could not be retried: its client's retry budget is
    spent.  Fields: ``query_class``, ``client``.
``breaker.open``
    A per-host circuit breaker tripped after repeated failures involving
    a down host; queries touching the host are planned degraded until
    the breaker closes.  Fields: ``host``, ``failures``.
``breaker.close``
    A circuit breaker's cooldown elapsed; the host serves normal plans
    again.  Fields: ``host``, ``open_seconds``.
``fleet.claim``
    The fleet coordinator registered a query's link claims (at launch,
    or after a granted relocation updated its placement).  Fields:
    ``query_class``, ``links`` (distinct cross-host links claimed).
``fleet.grant``
    The relocation-budget arbiter granted a proposed placement change.
    Fields: ``query_class``, ``moves`` (count of actors whose host
    changes), ``links`` (distinct link/host buckets the moveset
    charges), ``urgency``.
``fleet.deny``
    The arbiter denied a proposed placement change (token bucket or
    fairness reserve exhausted on some link/host).  Fields:
    ``query_class``, ``moves``, ``bottleneck`` (the ``"a|b"`` link or
    host bucket that ran dry), ``urgency``.
``fleet.rebalance``
    A granted relocation re-registered the query's claims; the
    coordinator's residual-bandwidth view changed.  Fields:
    ``query_class``, ``links_before``, ``links_after``.

Span events
-----------

``link.transfer``
    One wire transfer occupying both endpoints' NICs.  Fields:
    ``src_host``, ``dst_host``, ``kind``, ``wire_bytes``, ``bandwidth``
    (the observed application-level bandwidth fed to monitors), ``uid``.
``barrier.round``
    One full barrier change-over, from the PREPARE fan-out until every
    actor was committed.  Fields: ``plan_seq``.  ``dur`` is the stall
    :attr:`~repro.obs.metrics.RunMetrics.barrier_stall_seconds`
    accumulates.
``barrier.suspend``
    One server's suspension window between its PREPARE and COMMIT.
    Fields: ``actor``, ``plan_seq``.
``compute``
    An operator composing its inputs.  Fields: ``actor``, ``host``,
    ``iteration``.

The ``query_id`` tag
--------------------

In a concurrent workload run (:mod:`repro.workload`) every event that is
attributable to one query additionally carries a ``query_id`` field: the
per-query engine components emit through a
:class:`~repro.obs.tracer.ScopedTracer`, and the shared network/monitor
layers copy the tag from the message or transfer that triggered the
event.  Events of shared machinery — monitoring estimates answered from
a host cache, fault-plan timeline boundaries, frame records — stay
untagged.  Single-query runs through
:func:`repro.engine.simulation.run_simulation` never set the field, so
their traces are byte-identical to pre-workload ones.  Use
:func:`repro.obs.summary.query_records` to slice one query's replayable
view out of a shared trace.
"""

from __future__ import annotations

MESSAGE_SEND = "message.send"
MESSAGE_RECV = "message.recv"
MESSAGE_FORWARD = "message.forward"
LINK_TRANSFER = "link.transfer"
RELOCATION = "relocation"
BARRIER_ROUND = "barrier.round"
BARRIER_SUSPEND = "barrier.suspend"
PLANNER_RUN = "planner.run"
PLANNER_SEARCH = "planner.search"
PLACEMENT_INSTALL = "placement.install"
MONITOR_ESTIMATE = "monitor.estimate"
MONITOR_PASSIVE = "monitor.passive"
MONITOR_PROBE = "monitor.probe"
MONITOR_PROBE_RESULT = "monitor.probe_result"
MONITOR_PIGGYBACK = "monitor.piggyback"
COMPUTE = "compute"
ARRIVAL = "arrival"
RUN_META = "run.meta"
RUN_END = "run.end"
NET_RETRANSMIT = "net.retransmit"
NET_DROP = "net.drop"
NET_ABANDON = "net.abandon"
RELOCATION_ABORT = "relocation.abort"
FAULT_LINK_DOWN = "fault.link_down"
FAULT_LINK_UP = "fault.link_up"
FAULT_HOST_DOWN = "fault.host_down"
FAULT_HOST_UP = "fault.host_up"
MONITOR_PROBE_TIMEOUT = "monitor.probe_timeout"
PLANNER_FALLBACK = "planner.fallback"
QUERY_SHED = "query.shed"
QUERY_QUEUED = "query.queued"
QUERY_DEADLINE_ABORT = "query.deadline_abort"
QUERY_RETRY = "query.retry"
RETRY_BUDGET_EXHAUSTED = "retry.budget_exhausted"
BREAKER_OPEN = "breaker.open"
BREAKER_CLOSE = "breaker.close"
FLEET_CLAIM = "fleet.claim"
FLEET_GRANT = "fleet.grant"
FLEET_DENY = "fleet.deny"
FLEET_REBALANCE = "fleet.rebalance"

#: Event type -> "point" | "span".  Exporters use this to pick the Chrome
#: ``trace_event`` phase; anything absent defaults to "point".
EVENT_KINDS: dict[str, str] = {
    MESSAGE_SEND: "point",
    MESSAGE_RECV: "point",
    MESSAGE_FORWARD: "point",
    LINK_TRANSFER: "span",
    RELOCATION: "point",
    BARRIER_ROUND: "span",
    BARRIER_SUSPEND: "span",
    PLANNER_RUN: "point",
    PLANNER_SEARCH: "point",
    PLACEMENT_INSTALL: "point",
    MONITOR_ESTIMATE: "point",
    MONITOR_PASSIVE: "point",
    MONITOR_PROBE: "point",
    MONITOR_PROBE_RESULT: "point",
    MONITOR_PIGGYBACK: "point",
    COMPUTE: "span",
    ARRIVAL: "point",
    RUN_META: "point",
    RUN_END: "point",
    NET_RETRANSMIT: "point",
    NET_DROP: "point",
    NET_ABANDON: "point",
    RELOCATION_ABORT: "point",
    FAULT_LINK_DOWN: "point",
    FAULT_LINK_UP: "point",
    FAULT_HOST_DOWN: "point",
    FAULT_HOST_UP: "point",
    MONITOR_PROBE_TIMEOUT: "point",
    PLANNER_FALLBACK: "point",
    QUERY_SHED: "point",
    QUERY_QUEUED: "point",
    QUERY_DEADLINE_ABORT: "point",
    QUERY_RETRY: "point",
    RETRY_BUDGET_EXHAUSTED: "point",
    BREAKER_OPEN: "point",
    BREAKER_CLOSE: "point",
    FLEET_CLAIM: "point",
    FLEET_GRANT: "point",
    FLEET_DENY: "point",
    FLEET_REBALANCE: "point",
}

SPAN_EVENTS = frozenset(k for k, v in EVENT_KINDS.items() if v == "span")


def is_span(event_type: str) -> bool:
    """True if ``event_type`` is a span (has a duration)."""
    return event_type in SPAN_EVENTS
