"""On-line relocation controllers.

* :class:`GlobalController` — §2.2: the client periodically re-plans with
  the one-shot procedure (warm-started from the current placement) using
  its monitoring view, then installs the new placement with the barrier
  change-over protocol.
* :class:`LocalController` — §2.3: one process per operator firing at
  staggered epoch boundaries (a wavefront moving up the tree); each
  operator self-detects critical-path membership from "later" marks and,
  if on the path, picks the local-critical-path-minimizing site among its
  neighbours' hosts plus ``k`` random extras.
"""

from __future__ import annotations

import numpy as np

from repro.engine.actors import ClientActor
from repro.engine.runtime import Runtime
from repro.obs.events import (
    BARRIER_ROUND,
    PLACEMENT_INSTALL,
    PLANNER_FALLBACK,
    PLANNER_RUN,
)
from repro.placement.download_all import download_all_placement
from repro.placement.global_planner import GlobalPlanner
from repro.placement.local_rules import LocalRulesPlanner, is_on_critical_path

#: Global algorithm: install a new plan only if its modeled cost beats
#: the current placement's by this relative margin (hysteresis against
#: estimate jitter).
REPLAN_THRESHOLD = 0.10
#: Local algorithm: move only if the local critical path improves by
#: this relative margin.
LOCAL_MOVE_THRESHOLD = 0.05
#: Planner degradation under faults: below this fraction of usable link
#: estimates the global controller declines to replan.
DEGRADED_VIEW_THRESHOLD = 0.5
#: Planner degradation: an estimate older than this (seconds) no longer
#: counts toward view coverage.
DEGRADED_ESTIMATE_HORIZON = 1800.0
#: Planner degradation: after this many consecutive degraded rounds the
#: global controller falls back to the download-all placement.
DEGRADED_ROUNDS_TO_DOWNLOAD_ALL = 3
#: Safety net on waiting for pre-planning probes.  Probes travel at
#: CONTROL priority so they always make progress; planning on a
#: half-refreshed estimate matrix measurably hurts plan quality, so the
#: controllers normally wait for every probe.
PROBE_WAIT_SECONDS = 3600.0


def _probe_stale_links(runtime: Runtime, viewer: str, pairs):
    """Process generator: probe the ``pairs`` ``viewer`` has no fresh
    estimate for, and wait for them (at most :data:`PROBE_WAIT_SECONDS`).

    ``pairs`` are estimated in the order given.  Returns whether any
    probe was sent.
    """
    env = runtime.env
    estimate = runtime.monitoring.estimate
    stale = [
        (a, b) for a, b in pairs if estimate(viewer, a, b, env.now).quality != "fresh"
    ]
    if not stale:
        return False
    probes = [env.process(runtime.remote_probe(viewer, a, b)) for a, b in stale]
    yield env.any_of([env.all_of(probes), env.timeout(PROBE_WAIT_SECONDS)])
    return True


class GlobalController:
    """Periodic global re-planning plus the barrier change-over."""

    #: Probe/re-plan refinement iterations per planning round.  One round
    #: measurably beats more: extra probe rounds refresh more links but
    #: their traffic preempts the data pipeline (probes ride at CONTROL
    #: priority so they cannot be starved), and the interference costs
    #: more than the fresher matrix gains.
    MAX_PROBE_ROUNDS = 1

    def __init__(
        self,
        runtime: Runtime,
        planner: GlobalPlanner,
        client_actor: ClientActor,
    ) -> None:
        self.runtime = runtime
        self.planner = planner
        self.client_actor = client_actor
        self._plan_seq = 0
        self._degraded_rounds = 0

    def run(self):
        """Main controller process (lives at the client)."""
        runtime = self.runtime
        period = runtime.spec.relocation_period
        while True:
            yield runtime.env.timeout(period)
            if runtime.finished:
                return
            yield from self._replan_once()

    def _replan_once(self):
        runtime = self.runtime
        env = runtime.env
        client_host = runtime.spec.client_host
        runtime.metrics.planner_runs += 1
        tracer = runtime.tracer
        if tracer.enabled:
            tracer.emit(PLANNER_RUN, env.now, {"algorithm": self.planner.name})

        if runtime.faults is not None and not runtime.spec.oracle_monitoring:
            # Under faults the monitoring view can rot (probes time out,
            # links stay dark).  Planning on a mostly-dead matrix produces
            # garbage moves, so degrade instead: keep the last-known-good
            # placement, and after enough consecutive degraded rounds
            # retreat to the always-feasible download-all placement.
            coverage = self._view_coverage(client_host)
            if coverage < DEGRADED_VIEW_THRESHOLD:
                self._degraded_rounds += 1
                runtime.metrics.planner_fallbacks += 1
                fallback_to_download = (
                    self._degraded_rounds >= DEGRADED_ROUNDS_TO_DOWNLOAD_ALL
                )
                mode = (
                    "download-all" if fallback_to_download else "last-known-good"
                )
                if tracer.enabled:
                    tracer.emit(
                        PLANNER_FALLBACK,
                        env.now,
                        {
                            "algorithm": self.planner.name,
                            "mode": mode,
                            "coverage": coverage,
                        },
                    )
                if fallback_to_download:
                    download = download_all_placement(
                        runtime.tree,
                        {
                            s.node_id: runtime.host_of(s.node_id)
                            for s in runtime.tree.servers()
                        },
                        runtime.spec.client_host,
                    )
                    if download != runtime.current_placement:
                        yield from self._install(download)
                return
            self._degraded_rounds = 0

        if runtime.spec.probe_before_planning and not runtime.spec.oracle_monitoring:
            # Plan, probe the stale links the search consulted, re-plan —
            # to a fixpoint: a refreshed matrix can steer the search onto
            # links it had not queried before, and planning on unmeasured
            # links invites winner's-curse moves.  This is §2.1's "in
            # practice ... only a subset of the links need to be measured"
            # made operational.
            for _ in range(self.MAX_PROBE_ROUNDS):
                dry = self.planner.plan(
                    runtime.snapshot_estimator(client_host),
                    runtime.current_placement,
                    tracer=tracer,
                    now=env.now,
                )
                runtime.metrics.note_plan(dry)
                probed = yield from _probe_stale_links(
                    runtime, client_host, sorted(dry.links_queried)
                )
                if not probed:
                    break
                if runtime.finished:
                    return

        estimator = runtime.snapshot_estimator(client_host)
        result = self.planner.plan(
            estimator, runtime.current_placement, tracer=tracer, now=env.now
        )
        runtime.metrics.note_plan(result)
        if result.placement == runtime.current_placement:
            return
        # Hysteresis: estimate jitter should not trigger change-overs.
        # The search reports its start's price under ``estimator``; a
        # fleet plan, which searched a residual view, reports none.
        current_cost = result.start_cost
        if current_cost is None:
            current_cost = self.planner.price(estimator, runtime.current_placement)
        if result.cost > current_cost * (1.0 - REPLAN_THRESHOLD):
            return

        if not runtime.spec.oracle_monitoring:
            # Validate before committing: the search optimizes over every
            # link estimate, so its winner is biased toward links whose
            # bandwidth is *over*-estimated (winner's curse — and the bias
            # grows with tree size).  Re-measure the links the chosen plan
            # would actually use and re-check the improvement.
            yield from self._refresh_plan_links(result.placement, client_host)
            if runtime.finished:
                return
            validated = runtime.snapshot_estimator(client_host)
            new_cost = self.planner.price(validated, result.placement)
            current_cost = self.planner.price(validated, runtime.current_placement)
            if new_cost > current_cost * (1.0 - REPLAN_THRESHOLD):
                return
        yield from self._install(result.placement)

    def _view_coverage(self, viewer: str) -> float:
        """Fraction of host pairs with a usable (recent-enough) estimate.

        Uses :meth:`~repro.monitor.cache.BandwidthCache.lookup_any` and
        judges age against :data:`DEGRADED_ESTIMATE_HORIZON`, not the
        monitor's ``T_THRES`` freshness cut.
        """
        runtime = self.runtime
        cache = runtime.monitoring.cache_for(viewer)
        now = runtime.env.now
        hosts = sorted(runtime.spec.all_hosts)
        total = 0
        usable = 0
        for i, a in enumerate(hosts):
            for b in hosts[i + 1 :]:
                total += 1
                entry = cache.lookup_any(a, b)
                if (
                    entry is not None
                    and entry.age(now) <= DEGRADED_ESTIMATE_HORIZON
                ):
                    usable += 1
        return usable / total if total else 1.0

    def _refresh_plan_links(self, placement, client_host: str):
        """Probe the stale links a candidate placement would put data on."""
        runtime = self.runtime
        pairs: set[tuple[str, str]] = set()
        for node in runtime.tree.nodes():
            if node.parent is None:
                continue
            a = placement.host_of(node.node_id)
            b = placement.host_of(node.parent)
            if a != b:
                pairs.add((a, b) if a < b else (b, a))
        yield from _probe_stale_links(runtime, client_host, sorted(pairs))

    def _install(self, placement):
        """Run the barrier change-over protocol (§2.2)."""
        runtime = self.runtime
        env = runtime.env
        self._plan_seq += 1
        plan_seq = self._plan_seq
        runtime.metrics.placements_installed += 1
        runtime.metrics.barrier_rounds += 1
        started = env.now
        tracer = runtime.tracer
        if tracer.enabled:
            current = runtime.current_placement
            moves = sum(
                1
                for node in runtime.tree.nodes()
                if placement.host_of(node.node_id)
                != current.host_of(node.node_id)
            )
            tracer.emit(
                PLACEMENT_INSTALL,
                started,
                {"plan_seq": plan_seq, "moves": moves},
            )

        reports_ready = runtime.start_barrier(plan_seq)
        root_op = runtime.tree.root_operator.node_id
        self.client_actor.send_barrier(
            root_op,
            {"type": "prepare", "plan_seq": plan_seq},
            dst_host=runtime.current_placement.host_of(root_op),
        )
        reports = yield reports_ready
        switch_iteration = max(reports.values())

        payload = {
            "type": "commit",
            "plan_seq": plan_seq,
            "switch_iteration": switch_iteration,
            "placement": placement.as_dict(),
        }
        for op in runtime.tree.operators():
            self.client_actor.send_barrier(
                op.node_id, dict(payload), dst_host=runtime.host_of(op.node_id)
            )
        for server in runtime.tree.servers():
            self.client_actor.send_barrier(
                server.node_id,
                dict(payload),
                dst_host=runtime.host_of(server.node_id),
            )
        # The client switches its own view as well.
        self.client_actor.switch_plan = (switch_iteration, placement.as_dict())
        runtime.current_placement = placement
        runtime.metrics.barrier_stall_seconds += env.now - started
        if tracer.enabled:
            tracer.span(
                BARRIER_ROUND,
                started,
                env.now,
                {"plan_seq": plan_seq},
            )


class LocalController:
    """The distributed local algorithm's epoch wavefront (§2.3).

    The site decisions themselves are delegated to a
    :class:`~repro.placement.local_rules.LocalRulesPlanner`; the
    controller owns the run-time machinery (epoch staggering, probe
    traffic, move thresholds).
    """

    def __init__(self, runtime: Runtime, planner: LocalRulesPlanner) -> None:
        self.runtime = runtime
        self.planner = planner
        self.cost_model = planner.cost_model
        self.sizes = planner.cost_model.sizes

    def start(self) -> None:
        """Spawn one epoch process per operator."""
        for index, op in enumerate(self.runtime.tree.operators()):
            rng = np.random.default_rng(
                (self.runtime.spec.control_seed, index)
            )
            self.runtime.env.process(
                self._epoch_process(op.node_id, op.level, rng),
                name=f"{self.runtime.namespace}epoch-{op.node_id}",
            )

    def _epoch_process(self, op_id: str, level: int, rng: np.random.Generator):
        """Fire at epoch boundaries where the index matches this level.

        Epoch length is ``period / depth`` so every operator reconsiders
        its placement once per relocation period; levels are staggered so
        decisions pass up the tree as a wavefront (§2.3).
        """
        runtime = self.runtime
        depth = max(runtime.tree.depth(), 1)
        epoch_len = runtime.spec.relocation_period / depth
        epoch_index = level
        while True:
            next_boundary = (epoch_index + 1) * epoch_len
            delay = next_boundary - runtime.env.now
            if delay > 0:
                yield runtime.env.timeout(delay)
            if runtime.finished:
                return
            yield from self._act(op_id, rng)
            epoch_index += depth

    def _act(self, op_id: str, rng: np.random.Generator):
        runtime = self.runtime
        actor = runtime.operators[op_id]

        marks = actor.later_marks_in_epoch
        dispatches = actor.dispatches_in_epoch
        actor.later_marks_in_epoch = 0
        actor.dispatches_in_epoch = 0
        on_path = is_on_critical_path(marks, dispatches, actor.consumer_critical)
        actor.on_critical_path = on_path
        if not on_path:
            return
        runtime.metrics.planner_runs += 1
        if runtime.tracer.enabled:
            runtime.tracer.emit(
                PLANNER_RUN,
                runtime.env.now,
                {"algorithm": self.planner.name, "actor": op_id},
            )

        my_host = runtime.host_of(op_id)
        producer_hosts = [actor.peer_host(p) for p in actor.producers]
        consumer_host = actor.peer_host(actor.consumer)

        base = set(producer_hosts) | {consumer_host, my_host}
        pool = sorted(set(runtime.spec.all_hosts) - base)
        k = min(runtime.spec.local_extra_candidates, len(pool))
        extras = (
            [pool[i] for i in rng.choice(len(pool), size=k, replace=False)]
            if k
            else []
        )

        if extras and not runtime.spec.oracle_monitoring:
            # The operator knows its own links passively (its data flows
            # over them).  Candidate evaluation needs the producer→candidate
            # cross links too: extra candidate sites (k > 0) charge their
            # monitoring (Figure 7), while base candidates are judged on
            # the operator's cached estimates.
            yield from self._refresh_links(
                my_host, producer_hosts, consumer_host, sorted(extras)
            )

        decision = self.planner.decide(
            current_host=my_host,
            producer_hosts=producer_hosts,
            producer_sizes=[self.sizes[p] for p in actor.producers],
            consumer_host=consumer_host,
            output_size=self.sizes[op_id],
            estimator=runtime.estimator_for(my_host),
            extra_candidates=extras,
            compute_seconds=self.cost_model.node_seconds(op_id),
        )
        if (
            decision.should_move
            and decision.best_cost
            < decision.current_cost * (1.0 - LOCAL_MOVE_THRESHOLD)
        ):
            target = decision.best_site
            if runtime.faults is not None and runtime.faults.host_down(
                target, runtime.env.now
            ):
                # Don't schedule a move onto a host known to be crashed;
                # the two-phase relocation would only abort anyway.
                runtime.metrics.planner_fallbacks += 1
                if runtime.tracer.enabled:
                    runtime.tracer.emit(
                        PLANNER_FALLBACK,
                        runtime.env.now,
                        {
                            "algorithm": self.planner.name,
                            "mode": "skip-down-host",
                            "actor": op_id,
                        },
                    )
                return
            actor.pending_move = target

    def _refresh_links(
        self,
        my_host: str,
        producer_hosts: list[str],
        consumer_host: str,
        candidates: list[str],
    ):
        """Probe the links the evaluation needs but has no fresh data for.

        This is the monitoring cost the paper charges to extra candidate
        locations ("additional links have to be monitored", Figure 7).
        """
        needed: set[tuple[str, str]] = set()
        for site in candidates:
            for producer_host in producer_hosts:
                if producer_host != site:
                    needed.add(tuple(sorted((producer_host, site))))
            if site != consumer_host:
                needed.add(tuple(sorted((site, consumer_host))))
        yield from _probe_stale_links(self.runtime, my_host, sorted(needed))
