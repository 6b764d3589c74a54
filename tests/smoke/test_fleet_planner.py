"""Fleet-planner smoke: coordination off changes nothing, on it engages.

Six closed-loop global queries replanning every 30 s under the reference
chaos plan, with and without the fleet coordinator.  Off, the fleet
summary carries no ``fleet`` block, the obs stream no ``fleet.*`` event,
and a repeat run is bit-identical, obs stream included.  On, the
arbiter both grants and denies, every query claims its links once, and
the live summary equals a replay of its own trace.  With 24 images per
server, the coordinated fleet beats the blind one on p99 or fairness.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.engine.config import Algorithm
from repro.faults import reference_chaos_plan
from repro.obs import Tracer
from repro.workload import (
    ClosedLoop,
    FleetPolicy,
    QueryClass,
    WorkloadSpec,
    fleet_from_trace,
    run_workload,
)


def spec(fleet, images_per_server=12):
    base = WorkloadSpec(
        classes=(
            QueryClass(
                name="global",
                algorithm=Algorithm.GLOBAL,
                slo_target=2000.0,
                overrides={"relocation_period": 30.0},
            ),
        ),
        num_clients=6,
        queries_per_client=1,
        arrivals=ClosedLoop(),
        seed=17,
        num_servers=4,
        images_per_server=images_per_server,
        fleet=fleet,
    )
    return replace(base, fault_plan=reference_chaos_plan(base.all_hosts, seed=3))


def digest(events):
    """sha256 of the obs stream with run-local uids ranked."""
    uids = sorted({e["uid"] for e in events if "uid" in e})
    rank = {uid: i for i, uid in enumerate(uids)}
    normalized = [
        {**e, "uid": rank[e["uid"]]} if "uid" in e else e for e in events
    ]
    return hashlib.sha256(
        json.dumps(normalized, sort_keys=True).encode()
    ).hexdigest()


def traced(fleet):
    tracer = Tracer()
    return run_workload(spec(fleet), tracer=tracer), tracer.events


COORDINATED = FleetPolicy(
    mode="coordinated", link_tokens=1.0, token_refill_seconds=600.0
)


@pytest.fixture(scope="module")
def coordinated():
    return traced(COORDINATED)


def test_coordination_off_is_inert_and_repeatable():
    off_a, events_a = traced(None)
    off_b, events_b = traced(None)
    assert "fleet" not in off_a.fleet, sorted(off_a.fleet)
    assert off_a.fleet == off_b.fleet
    assert digest(events_a) == digest(events_b)
    assert not any(e["type"].startswith("fleet.") for e in events_a)


def test_coordination_on_engages_the_arbiter(coordinated):
    on, _ = coordinated
    block = on.fleet["fleet"]
    assert block["grants"] > 0 and block["denies"] > 0, block
    assert block["claims"] == 6, block
    assert block["planner_candidates"] > 0, block


def test_coordinated_replay_matches_live(coordinated):
    on, events = coordinated
    assert fleet_from_trace(events) == on.fleet


def test_coordination_beats_blind_planning():
    # With 24 images per server the blind planners keep chasing the same
    # post-fault bandwidth long enough for the tail (or the spread across
    # clients) to show what the residual view and the arbiter save.
    blind = run_workload(spec(None, images_per_server=24)).fleet
    joint = run_workload(spec(COORDINATED, images_per_server=24)).fleet
    assert (
        joint["latency"]["p99"] < blind["latency"]["p99"]
        or joint["fairness_jain"] > blind["fairness_jain"]
    ), (blind["latency"], joint["latency"])
