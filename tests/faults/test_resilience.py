"""End-to-end resilience: dormant-plan bit-identity, chaos survival,
trace replay under faults, relocation aborts, transfer abandonment."""

import dataclasses
import math

import pytest

from repro.engine.config import Algorithm
from repro.engine.metrics import RunMetrics
from repro.engine.simulation import run_simulation
from repro.faults import (
    FaultPlan,
    HostCrash,
    LinkLoss,
    LinkOutage,
    RetryPolicy,
    reference_chaos_plan,
)
from repro.obs import Tracer
from repro.obs.events import NET_ABANDON, RELOCATION_ABORT
from repro.obs.summary import summarize_records
from tests.conftest import tiny_spec


def _chaos_plan(spec):
    return reference_chaos_plan(spec.all_hosts, seed=1)


def _normalized_events(tracer: Tracer) -> list:
    """Trace events with per-run-relative message uids.

    Message uids come from a process-global counter, so two otherwise
    identical runs in one process differ by a constant uid offset.  Rank
    uids within the run to compare streams structurally.
    """
    uids = sorted(
        {e["uid"] for e in tracer.events if "uid" in e}
    )
    rank = {uid: i for i, uid in enumerate(uids)}
    normalized = []
    for event in tracer.events:
        if "uid" in event:
            event = {**event, "uid": rank[event["uid"]]}
        normalized.append(event)
    return normalized


def _assert_summaries_match(live: RunMetrics, replayed: RunMetrics) -> None:
    live_summary, replay_summary = live.summary(), replayed.summary()
    for key, value in live_summary.items():
        other = replay_summary[key]
        if isinstance(value, float) and math.isnan(value):
            assert math.isnan(other), key
        else:
            assert other == value, key


class TestDormantPlanBitIdentity:
    """``fault_plan=FaultPlan()`` must be indistinguishable from ``fault_plan=None``:
    same metrics, same trace events, same kernel counters."""

    @pytest.mark.parametrize(
        "algorithm", list(Algorithm), ids=lambda a: a.value
    )
    def test_empty_plan_bit_identical(self, algorithm):
        baseline_tracer, empty_tracer = Tracer(), Tracer()
        baseline = run_simulation(
            tiny_spec(algorithm=algorithm, images=5), tracer=baseline_tracer
        )
        empty = run_simulation(
            tiny_spec(algorithm=algorithm, images=5, fault_plan=FaultPlan()),
            tracer=empty_tracer,
        )
        assert empty.summary() == baseline.summary()
        assert empty.arrival_times == baseline.arrival_times
        assert _normalized_events(empty_tracer) == _normalized_events(
            baseline_tracer
        )
        assert empty_tracer.counters == baseline_tracer.counters

    def test_resilience_counters_zero_without_faults(self):
        metrics = run_simulation(tiny_spec(images=4))
        assert metrics.retransmissions == 0
        assert metrics.dropped_bytes == 0.0
        assert metrics.abandoned_messages == 0
        assert metrics.aborted_relocations == 0
        assert metrics.host_downtime_seconds == 0.0
        assert metrics.probe_timeouts == 0
        assert metrics.planner_fallbacks == 0


class TestChaosSurvival:
    """Every algorithm finishes every query under the reference chaos plan
    (no unhandled EventFailed, no truncation) and reports resilience."""

    @pytest.mark.parametrize(
        "algorithm", list(Algorithm), ids=lambda a: a.value
    )
    def test_all_queries_complete(self, algorithm):
        spec = tiny_spec(algorithm=algorithm, images=12)
        spec = dataclasses.replace(spec, fault_plan=_chaos_plan(spec))
        metrics = run_simulation(spec)
        assert not metrics.truncated
        assert len(metrics.arrival_times) == 12
        assert metrics.retransmissions > 0
        assert metrics.dropped_bytes > 0

    def test_downtime_accounted_when_window_elapses(self):
        # download-all is the slowest policy here; with enough images its
        # run outlives the chaos plan's 600..840 s crash window.
        spec = tiny_spec(algorithm=Algorithm.DOWNLOAD_ALL, images=40)
        spec = dataclasses.replace(spec, fault_plan=_chaos_plan(spec))
        metrics = run_simulation(spec)
        assert metrics.host_downtime_seconds == pytest.approx(240.0)


class TestFaultedTraceReplay:
    @pytest.mark.parametrize(
        "algorithm", [Algorithm.DOWNLOAD_ALL, Algorithm.GLOBAL],
        ids=lambda a: a.value,
    )
    def test_replay_matches_live(self, algorithm):
        spec = tiny_spec(algorithm=algorithm, images=12)
        spec = dataclasses.replace(spec, fault_plan=_chaos_plan(spec))
        tracer = Tracer()
        live = run_simulation(spec, tracer=tracer)
        replayed = RunMetrics.from_trace(tracer.events)
        _assert_summaries_match(live, replayed)
        assert replayed.arrival_times == live.arrival_times

    def test_trace_summary_reports_resilience(self):
        spec = tiny_spec(algorithm=Algorithm.DOWNLOAD_ALL, images=12)
        spec = dataclasses.replace(spec, fault_plan=_chaos_plan(spec))
        tracer = Tracer()
        live = run_simulation(spec, tracer=tracer)
        summary = summarize_records(tracer.events)
        assert summary.metrics.retransmissions == live.retransmissions
        assert summary.metrics.dropped_bytes == pytest.approx(live.dropped_bytes)
        assert summary.metrics.host_downtime_seconds == pytest.approx(
            live.host_downtime_seconds
        )
        assert summary.fault_timeline  # boundaries made it into the trace

    def test_trace_summary_totals_are_the_replayed_counters(self):
        spec = tiny_spec(algorithm=Algorithm.GLOBAL, images=12)
        spec = dataclasses.replace(spec, fault_plan=_chaos_plan(spec))
        tracer = Tracer()
        run_simulation(spec, tracer=tracer)
        replayed = RunMetrics.from_trace(tracer.events).summary()
        totals = vars(summarize_records(tracer.events).metrics)
        assert replayed["retransmissions"] and replayed["host_downtime_seconds"]
        counters = {key: value for key, value in replayed.items() if key in totals}
        assert len(counters) == len(replayed) - 4  # schema and the derived times
        for key, value in counters.items():
            assert totals[key] == value, key


class TestRelocationAbort:
    def test_crashed_destination_aborts_moves(self):
        # Crash every non-client server host for almost the whole run: any
        # relocation the global controller attempts must roll back.
        spec = tiny_spec(algorithm=Algorithm.GLOBAL, images=40)
        crashes = tuple(
            HostCrash(h, 1.0, 50000.0)
            for h in spec.server_hosts[1:]
        )
        plan = FaultPlan(host_crashes=crashes)
        spec = dataclasses.replace(spec, fault_plan=plan)
        tracer = Tracer()
        metrics = run_simulation(spec, tracer=tracer)
        aborts = [e for e in tracer.events if e["type"] == RELOCATION_ABORT]
        assert metrics.aborted_relocations == len(aborts)
        if aborts:  # every abort names a rollback reason
            assert all(
                e["reason"] in (
                    "destination-down", "timeout", "transfer-abandoned"
                )
                for e in aborts
            )


class TestAbandonment:
    def test_bounded_retries_abandon_and_recover(self):
        # 100% loss on a leaf link with a tiny retry budget: the transfers
        # on that pair are abandoned, the waiters see TransferAbandoned,
        # and the run must still terminate (truncated or not) rather than
        # crash with EventFailed.
        spec = tiny_spec(algorithm=Algorithm.DOWNLOAD_ALL, images=3)
        plan = FaultPlan(
            link_loss=(LinkLoss(spec.server_hosts[0], "client", 1.0),),
            retry=RetryPolicy(timeout=5.0, max_attempts=2),
        )
        spec = dataclasses.replace(
            spec, fault_plan=plan, max_sim_time=20000.0
        )
        tracer = Tracer()
        metrics = run_simulation(spec, tracer=tracer)
        assert metrics.abandoned_messages > 0
        assert any(e["type"] == NET_ABANDON for e in tracer.events)

    def test_outage_retries_until_recovery(self):
        # An outage shorter than the retry horizon: the transfer retries
        # through the window and completes; nothing is abandoned.
        spec = tiny_spec(algorithm=Algorithm.DOWNLOAD_ALL, images=3)
        plan = FaultPlan(
            link_outages=(
                LinkOutage(spec.server_hosts[0], "client", 0.0, 60.0),
            ),
        )
        spec = dataclasses.replace(spec, fault_plan=plan)
        metrics = run_simulation(spec)
        assert not metrics.truncated
        assert len(metrics.arrival_times) == 3
        assert metrics.retransmissions > 0
        assert metrics.abandoned_messages == 0


class TestEndlessOutage:
    """A host that never comes back: retries run at the backoff ceiling
    until ``max_sim_time`` instead of overflowing the backoff power."""

    def test_network_retries_past_attempt_1025(self):
        from repro.faults.injector import FaultInjector
        from repro.net.host import Host
        from repro.net.link import Link
        from repro.net.message import Message, MessageKind
        from repro.net.network import Network
        from repro.sim import Environment
        from repro.traces import constant_trace

        env = Environment()
        net = Network(env)
        for name in ("a", "b"):
            net.add_host(Host(env, name))
        net.add_link(Link("a", "b", constant_trace(1000.0)))
        plan = FaultPlan(host_crashes=(HostCrash("b", 0.0, math.inf),))
        net.install_faults(FaultInjector(plan, env))
        message = Message(MessageKind.DATA, "@a", "@b", 100.0)
        net.post(message, src_host="a", dst_host="b")
        # Attempt 1,025 starts at t = 245,250 s, inside the default
        # 10-day max_sim_time.
        env.run(until=10 * 86400.0)
        assert net.stats_for(None).retransmissions > 1025
        assert math.isnan(message.delivered_at)
        assert net.stats_for(None).transfers == 0

    def test_run_ends_truncated(self):
        spec = tiny_spec(
            images=2,
            fault_plan=FaultPlan(host_crashes=(HostCrash("client", 0.0, math.inf),)),
        )
        metrics = run_simulation(spec)
        assert metrics.truncated
        assert metrics.retransmissions > 1025
