"""Trace archives are pinned byte for byte, and so is the tracer contract.

Each golden below is the SHA-256 of a run's ``write_jsonl`` archive,
header and footer included, with message uids renumbered in order of
first appearance.  Uids come from a process-global counter, so the raw
numbers depend on what ran earlier in the process; everything else in
the archive -- every record, every key and its order, every float -- is
a function of the run alone.  A change to an emit site, to the tracer or
to the codec that moves one byte fails here.

The runs cover every emit site the paper-scale engine reaches: the four
algorithms, one run under the reference chaos plan with a bounded retry
budget (drops, retransmits, an abandoned transfer, planner fallbacks,
host and link fault boundaries), and one overload-protected,
coordinated fleet whose queries trace through ``ScopedTracer``.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro.engine.config import Algorithm
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_configuration
from repro.faults import RetryPolicy, reference_chaos_plan
from repro.obs import NULL_TRACER, NullTracer, ScopedTracer, StreamingTracer, Tracer
from repro.obs import write_jsonl
from repro.workload import (
    FleetPolicy,
    OpenLoop,
    OverloadPolicy,
    QueryClass,
    WorkloadSpec,
    run_workload,
)

SETUP = ExperimentConfig(num_servers=4, images_per_server=12)
HOSTS = (*SETUP.server_hosts, SETUP.client_host)


def archive_digest(tracer: Tracer, tmp_path) -> str:
    """SHA-256 of the tracer's JSONL archive with run-relative uids."""
    rank: dict[int, int] = {}
    for event in tracer.events:
        uid = event.get("uid")
        if uid is not None:
            # Assigning an existing key keeps its position in the record.
            event["uid"] = rank.setdefault(uid, len(rank))
    path = tmp_path / "trace.jsonl"
    write_jsonl(tracer, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def chaos_setup() -> ExperimentConfig:
    plan = replace(
        reference_chaos_plan(HOSTS, seed=3),
        retry=RetryPolicy(max_attempts=3),
    )
    return replace(SETUP, fault_plan=plan)


def fleet_spec() -> WorkloadSpec:
    classes = (
        QueryClass(
            name="gold",
            algorithm=Algorithm.GLOBAL,
            deadline=600.0,
            slo_target=400.0,
            overrides={"relocation_period": 30.0},
        ),
        QueryClass(name="bulk", algorithm=Algorithm.ONE_SHOT),
    )
    hosts = (*[f"h{i}" for i in range(4)], "client")
    return WorkloadSpec(
        classes=classes,
        num_clients=6,
        queries_per_client=3,
        arrivals=OpenLoop(rate=0.02, process="poisson"),
        seed=5,
        num_servers=4,
        images_per_server=3,
        fault_plan=reference_chaos_plan(hosts, seed=3),
        overload=OverloadPolicy(
            max_concurrent=3,
            max_queue_depth=4,
            retry_budget=2,
            retry_backoff=45.0,
            breaker_threshold=2,
            breaker_cooldown=300.0,
        ),
        fleet=FleetPolicy(
            mode="coordinated", link_tokens=1.0, token_refill_seconds=600.0
        ),
    )


GOLDEN = {
    "download-all": (
        "a750145845d01a2347b0ac063a8f666c"
        "96d99dc88a52bcd12e7657095d6ca742"
    ),
    "one-shot": (
        "67aa8d191c3d681c8d0dee7885b732f7"
        "1eb65c355959bfa560ee5676d086cba7"
    ),
    "global": (
        "7536349c73fcc041ebb5459f66172937"
        "65f74a2f2acd7152f254656024ebf9dc"
    ),
    "local": (
        "6b28f4213815e2177a49acb4a5e18f6b"
        "033dac7373c99f807a5373ddc0cd646e"
    ),
    "chaos": (
        "12b08a79a5fe089c7a9fcd6044b8a754"
        "d0435386d2c851b08689dc4610a9658f"
    ),
    "fleet": (
        "e9748e322051c3551a84efe69775a61a"
        "45b1f10fdc071c28befeface4377c256"
    ),
}


@pytest.mark.parametrize("algorithm", list(Algorithm), ids=lambda a: a.value)
def test_algorithm_archive_bytes(algorithm, tmp_path):
    tracer = Tracer()
    run_configuration(SETUP, 0, algorithm, tracer=tracer)
    assert archive_digest(tracer, tmp_path) == GOLDEN[algorithm.value]


def test_chaos_archive_bytes(tmp_path):
    tracer = Tracer()
    run_configuration(chaos_setup(), 0, Algorithm.GLOBAL, tracer=tracer)
    types = {event["type"] for event in tracer.events}
    assert {"net.drop", "net.retransmit", "net.abandon"} <= types
    assert archive_digest(tracer, tmp_path) == GOLDEN["chaos"]


def test_coordinated_fleet_archive_bytes(tmp_path):
    tracer = Tracer()
    run_workload(fleet_spec(), tracer=tracer)
    types = {event["type"] for event in tracer.events}
    assert {"fleet.grant", "fleet.deny", "query.shed"} <= types
    assert all("query_id" in e for e in tracer.events if e["type"] == "run.meta")
    assert archive_digest(tracer, tmp_path) == GOLDEN["fleet"]


class TestTracerContract:
    """Every tracer takes a bare ``emit(type, t)`` and ``span(type, start,
    end)``, and a scoped view forwards each record in exactly one call."""

    @pytest.mark.parametrize(
        "make",
        [
            Tracer,
            NullTracer,
            lambda: NULL_TRACER,
            lambda: ScopedTracer(Tracer(), query_id="q"),
            lambda: ScopedTracer(NULL_TRACER, query_id="q"),
        ],
        ids=["tracer", "null", "null-singleton", "scoped", "scoped-null"],
    )
    def test_fieldless_calls(self, make):
        tracer = make()
        tracer.emit("probe", 0.0)
        tracer.span("probe", 0.0, 1.0)

    def test_streaming_fieldless_calls(self, tmp_path):
        with StreamingTracer(tmp_path / "segments") as tracer:
            tracer.emit("probe", 0.0)
            tracer.span("probe", 0.0, 1.0)
        assert tracer.writer.records_written == 2

    def test_fieldless_records(self):
        tracer = Tracer()
        tracer.emit("probe", 0.0)
        tracer.span("probe", 1.0, 3.0)
        ScopedTracer(tracer, query_id="q").emit("probe", 4.0)
        assert tracer.events == [
            {"type": "probe", "t": 0.0},
            {"type": "probe", "t": 1.0, "dur": 2.0},
            {"type": "probe", "t": 4.0, "query_id": "q"},
        ]

    def test_scoped_forwards_one_call_each(self):
        calls = []

        class Recorder(Tracer):
            __slots__ = ()

            def emit(self, *args, **kwargs):
                calls.append("emit")
                super().emit(*args, **kwargs)

            def span(self, *args, **kwargs):
                calls.append("span")
                super().span(*args, **kwargs)

        inner = Recorder()
        scoped = ScopedTracer(inner, query_id="q")
        scoped.emit("probe", 0.0)
        scoped.span("probe", 0.0, 1.0)
        assert calls == ["emit", "span"]
        assert [e["query_id"] for e in inner.events] == ["q", "q"]
