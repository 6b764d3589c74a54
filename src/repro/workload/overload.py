"""Fleet-level overload protection: admission, deadlines, breakers.

The workload engine admits every scheduled query unconditionally by
default.  An :class:`OverloadPolicy` on the spec turns on a
deterministic protection pipeline, applied in arrival order:

1. **Admission** — at most ``max_concurrent`` queries run at once.
   Arrivals beyond that either join a bounded FIFO queue
   (``max_queue_depth``) or are *shed*: rejected outright, with the
   shed-vs-queue choice optionally randomized by a seeded per-slot coin
   (``shed_probability``).  Every decision happens at arrival time and
   derives from the workload seed, so runs replay bit-exactly.
2. **Deadlines** — a :class:`~repro.workload.spec.QueryClass` with a
   ``deadline`` aborts queries that exceed it (measured from arrival,
   queueing included) through the cooperative cancellation path:
   the client stops demanding, the demand-driven pipeline drains, and
   the query finalizes truncated.  Queries that expire while still
   queued are aborted without ever launching.
3. **Retry budgets** — each client may resubmit deadline-aborted
   queries up to ``retry_budget`` times (cumulative per client), after
   ``retry_backoff`` seconds; exhaustion is recorded, not retried.
4. **Circuit breakers** — a per-host failure counter increments when a
   deadline abort involves a host that is down (per the fault
   injector); at ``breaker_threshold`` the breaker opens for
   ``breaker_cooldown`` seconds and new queries touching that host are
   planned with ``DEGRADED_ALGORITHM`` (the planner fallback order's
   terminal state) instead of retrying into a dead host.

Every transition is recorded once, as its obs event (``query.shed``,
``query.queued``, ``query.deadline_abort``, ``query.retry``,
``retry.budget_exhausted``, ``breaker.open``/``breaker.close``): it is
emitted when traced and counted by the metrics sink's
:meth:`~repro.workload.sink.FleetMetrics.fleet_event`, which the trace
replay feeds the same records, so live runs, trace replays and sharded
merges reconcile exactly.

With no policy and no class deadlines the engine never constructs an
:class:`OverloadController`: the default path is bit-identical to the
pre-overload engine (pinned by ``tests/workload/
test_defaults_equivalence.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

import numpy as np

from repro.engine.config import Algorithm
from repro.obs.events import (
    BREAKER_CLOSE,
    BREAKER_OPEN,
    QUERY_DEADLINE_ABORT,
    QUERY_QUEUED,
    QUERY_RETRY,
    QUERY_SHED,
    RETRY_BUDGET_EXHAUSTED,
)
from repro.obs.tracer import record_event

#: Salt of the per-slot shed-coin streams (seed, salt, client, ordinal,
#: attempt) — disjoint from every other seeded stream in the workload.
_SHED_SALT = 7919

#: Plan used for queries touching a broken host (the planner fallback
#: order's terminal state).
DEGRADED_ALGORITHM = Algorithm.DOWNLOAD_ALL


@dataclass(frozen=True)
class OverloadPolicy:
    """Admission, retry and breaker limits for one workload.

    The default instance is *null*: it configures nothing and the
    engine treats it exactly like ``overload=None``.
    """

    #: Queries running at once; ``None`` admits everything.
    max_concurrent: Optional[int] = None
    #: Arrivals waiting for a slot; 0 sheds everything over the limit.
    max_queue_depth: int = 0
    #: Probability that a saturated arrival is shed instead of queued
    #: (seeded per (client, ordinal, attempt) slot; 0 queues whenever
    #: there is room).
    shed_probability: float = 0.0
    #: Deadline-aborted resubmissions allowed per client (cumulative).
    retry_budget: int = 0
    #: Seconds between a deadline abort and its resubmission.
    retry_backoff: float = 30.0
    #: Consecutive down-host failures that trip a host's breaker;
    #: ``None`` disables breakers.
    breaker_threshold: Optional[int] = None
    #: Seconds an open breaker stays open before closing again.
    breaker_cooldown: float = 600.0

    def __post_init__(self) -> None:
        if self.max_concurrent is not None and self.max_concurrent < 1:
            raise ValueError(
                f"max_concurrent must be >= 1, got {self.max_concurrent!r}"
            )
        if self.max_queue_depth < 0:
            raise ValueError(
                f"max_queue_depth must be >= 0, got {self.max_queue_depth!r}"
            )
        if not 0.0 <= self.shed_probability <= 1.0:
            raise ValueError(
                f"shed_probability must be in [0, 1], "
                f"got {self.shed_probability!r}"
            )
        if self.retry_budget < 0:
            raise ValueError(
                f"retry_budget must be >= 0, got {self.retry_budget!r}"
            )
        if self.retry_backoff < 0:
            raise ValueError(
                f"retry_backoff must be >= 0, got {self.retry_backoff!r}"
            )
        if self.breaker_threshold is not None and self.breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1, "
                f"got {self.breaker_threshold!r}"
            )
        if self.breaker_cooldown <= 0:
            raise ValueError(
                f"breaker_cooldown must be positive, "
                f"got {self.breaker_cooldown!r}"
            )

    def is_null(self) -> bool:
        """True if the policy limits nothing (engine skips the
        controller unless a class carries a deadline)."""
        return (
            self.max_concurrent is None
            and self.retry_budget == 0
            and self.breaker_threshold is None
        )


class _Breaker:
    __slots__ = ("failures", "opened_at")

    def __init__(self) -> None:
        self.failures = 0
        self.opened_at: Optional[float] = None


@dataclass
class Submission:
    """One schedule slot's journey through the admission controller.

    ``completion`` fires when the *slot* resolves — completed, shed, or
    aborted with no retry budget left.  Retries share the original
    submission's completion event, so closed-loop sessions block until
    the slot's final attempt settles.
    """

    scheduled: Any  # ScheduledQuery (duck-typed; engine owns the class)
    arrival_at: float
    attempt: int
    completion: Any  # sim Event
    client_index: int = field(init=False)

    def __post_init__(self) -> None:
        self.client_index = self.scheduled.client_index


class OverloadController:
    """Arrival-time admission, deadline watchdogs, retries, breakers.

    Constructed by the engine only when the spec engages protection (a
    non-null policy or a class deadline); owns no processes — every
    decision runs inside :meth:`~repro.sim.core.Environment.
    schedule_callback` one-shots or the engine's done callbacks, so the
    calendar stays exactly as deterministic as the unprotected engine's.
    """

    def __init__(
        self,
        env,
        policy: OverloadPolicy,
        seed: int,
        tracer,
        sink,
        launch: Callable[[Any], Any],
        slot_resolved: Callable[[], None],
    ) -> None:
        self.env = env
        self.policy = policy
        self.seed = seed
        self.tracer = tracer
        self.sink = sink
        self._launch = launch
        self._slot_resolved = slot_resolved
        #: Set by the engine once the fault injector (if any) exists.
        self.injector = None
        self.active = 0
        self.queue: deque[Submission] = deque()
        self._retry_left: dict[int, int] = {}
        self._breakers: dict[str, _Breaker] = {}
        #: query_id -> submission, for launched (in-flight) attempts.
        self._inflight: dict[str, Submission] = {}

    # -- event plumbing -------------------------------------------------
    def _record(self, event_type: str, fields: dict[str, Any]) -> None:
        """Emit and count one transition.  Query events carry a
        ``query_id``; breaker transitions are fleet-level machinery,
        untagged like fault-plan timeline boundaries."""
        record_event(self.tracer, self.sink, event_type, self.env.now, fields)

    # -- submission -----------------------------------------------------
    def submit(self, scheduled) -> Submission:
        """Route one schedule slot: admit, queue or shed (arrival time)."""
        sub = Submission(
            scheduled=scheduled,
            arrival_at=self.env.now,
            attempt=0,
            completion=self.env.event(),
        )
        self._dispatch(sub)
        return sub

    def _dispatch(self, sub: Submission) -> None:
        self._sweep_breakers()
        policy = self.policy
        if policy.max_concurrent is None or (
            self.active < policy.max_concurrent and not self.queue
        ):
            self._admit(sub)
        elif len(self.queue) >= policy.max_queue_depth or self._shed_coin(sub):
            self._shed(sub)
        else:
            self.queue.append(sub)
            depth = len(self.queue)
            self._record(
                QUERY_QUEUED,
                {
                    "query_id": sub.scheduled.query_id,
                    "query_class": sub.scheduled.qclass.name,
                    "depth": depth,
                },
            )

    def _shed_coin(self, sub: Submission) -> bool:
        p = self.policy.shed_probability
        if p <= 0.0:
            return False
        if p >= 1.0:
            return True
        rng = np.random.default_rng(
            (
                self.seed,
                _SHED_SALT,
                sub.client_index,
                sub.scheduled.ordinal,
                sub.attempt,
            )
        )
        return bool(rng.random() < p)

    def _shed(self, sub: Submission) -> None:
        scheduled = sub.scheduled
        self._record(
            QUERY_SHED,
            {
                "query_id": scheduled.query_id,
                "query_class": scheduled.qclass.name,
                "attempt": sub.attempt,
            },
        )
        self._resolve(sub)

    def _admit(self, sub: Submission) -> None:
        self.active += 1
        scheduled = sub.scheduled
        open_hosts = self._open_hosts()
        if (
            open_hosts
            and scheduled.spec.algorithm is not DEGRADED_ALGORITHM
            and open_hosts.intersection(scheduled.spec.server_hosts)
        ):
            scheduled = replace(
                scheduled,
                spec=replace(scheduled.spec, algorithm=DEGRADED_ALGORITHM),
                degraded=True,
            )
            sub.scheduled = scheduled
        plan = self._launch(scheduled)
        self._inflight[plan.query_id] = sub
        deadline = scheduled.qclass.deadline
        if deadline is not None:
            remaining = max(sub.arrival_at + deadline - self.env.now, 0.0)
            self.env.schedule_callback(
                remaining, lambda: self._deadline_fire(plan, sub)
            )

    # -- deadlines ------------------------------------------------------
    def _deadline_fire(self, plan, sub: Submission) -> None:
        runtime = plan.runtime
        if runtime is None or runtime.done.triggered:
            return  # finished (or already finalized) in time
        plan.deadline_aborted = True
        runtime.cancel()
        scheduled = sub.scheduled
        self._record(
            QUERY_DEADLINE_ABORT,
            {
                "query_id": plan.query_id,
                "query_class": scheduled.qclass.name,
                "deadline": scheduled.qclass.deadline,
                "waited": self.env.now - sub.arrival_at,
                "launched": True,
            },
        )
        self._note_failure(scheduled.spec.server_hosts)
        # Settling `done` flows through the engine's completion callback:
        # a sink without records finalizes it (truncated) right away,
        # then query_finished runs the retry/resolve/drain step.
        runtime.done.succeed(self.env.now)

    def _expire_queued(self, sub: Submission) -> None:
        """A query aged out of the admission queue without launching."""
        scheduled = sub.scheduled
        self._record(
            QUERY_DEADLINE_ABORT,
            {
                "query_id": scheduled.query_id,
                "query_class": scheduled.qclass.name,
                "deadline": scheduled.qclass.deadline,
                "waited": self.env.now - sub.arrival_at,
                "launched": False,
            },
        )
        self._after_failure(sub)

    # -- completion -----------------------------------------------------
    def query_finished(self, plan) -> None:
        """Engine callback: a launched query's ``done`` event settled."""
        sub = self._inflight.pop(plan.query_id)
        self.active -= 1
        if plan.deadline_aborted:
            self._after_failure(sub)
        else:
            self._note_success(sub.scheduled.spec.server_hosts)
            self._resolve(sub)
        self._drain()

    def _after_failure(self, sub: Submission) -> None:
        policy = self.policy
        scheduled = sub.scheduled
        if policy.retry_budget > 0:
            left = self._retry_left.get(sub.client_index, policy.retry_budget)
            if left > 0:
                self._retry_left[sub.client_index] = left - 1
                self._schedule_retry(sub)
                return
            self._record(
                RETRY_BUDGET_EXHAUSTED,
                {
                    "query_id": scheduled.query_id,
                    "query_class": scheduled.qclass.name,
                    "client": sub.client_index,
                },
            )
        self._resolve(sub)

    def _schedule_retry(self, sub: Submission) -> None:
        scheduled = sub.scheduled
        attempt = sub.attempt + 1
        base = scheduled.query_id.split(".r", 1)[0]
        retry_qid = f"{base}.r{attempt}"
        wait = self.policy.retry_backoff
        self._record(
            QUERY_RETRY,
            {
                "query_id": retry_qid,
                "query_class": scheduled.qclass.name,
                "attempt": attempt,
                "wait": wait,
            },
        )
        # A degraded first attempt does not pin the retry: the breaker
        # state at resubmission time decides again.
        retry_scheduled = replace(
            scheduled, query_id=retry_qid, attempt=attempt, degraded=False
        )

        def _resubmit() -> None:
            retry_sub = Submission(
                scheduled=retry_scheduled,
                arrival_at=self.env.now,
                attempt=attempt,
                completion=sub.completion,
            )
            self._dispatch(retry_sub)

        self.env.schedule_callback(wait, _resubmit)

    def _resolve(self, sub: Submission) -> None:
        if not sub.completion.triggered:
            sub.completion.succeed(self.env.now)
        self._slot_resolved()

    def _drain(self) -> None:
        policy = self.policy
        while self.queue and (
            policy.max_concurrent is None
            or self.active < policy.max_concurrent
        ):
            sub = self.queue.popleft()
            deadline = sub.scheduled.qclass.deadline
            if (
                deadline is not None
                and self.env.now - sub.arrival_at >= deadline
            ):
                self._expire_queued(sub)
                continue
            self._admit(sub)

    # -- breakers -------------------------------------------------------
    def _open_hosts(self) -> set[str]:
        return {
            host
            for host, breaker in self._breakers.items()
            if breaker.opened_at is not None
        }

    def _sweep_breakers(self) -> None:
        cooldown = self.policy.breaker_cooldown
        now = self.env.now
        for host in sorted(self._breakers):
            breaker = self._breakers[host]
            if (
                breaker.opened_at is not None
                and now >= breaker.opened_at + cooldown
            ):
                open_seconds = now - breaker.opened_at
                breaker.opened_at = None
                breaker.failures = 0
                self._record(
                    BREAKER_CLOSE,
                    {"host": host, "open_seconds": open_seconds},
                )

    def _note_failure(self, hosts) -> None:
        threshold = self.policy.breaker_threshold
        if threshold is None:
            return
        injector = self.injector
        if injector is None:
            return
        now = self.env.now
        for host in hosts:
            if not injector.host_down(host, now):
                continue
            breaker = self._breakers.setdefault(host, _Breaker())
            if breaker.opened_at is not None:
                continue
            breaker.failures += 1
            if breaker.failures >= threshold:
                breaker.opened_at = now
                self._record(
                    BREAKER_OPEN,
                    {"host": host, "failures": breaker.failures},
                )

    def _note_success(self, hosts) -> None:
        if self.policy.breaker_threshold is None or not self._breakers:
            return
        for host in hosts:
            breaker = self._breakers.get(host)
            if breaker is not None and breaker.opened_at is None:
                breaker.failures = 0
