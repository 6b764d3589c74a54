"""Golden: the coordinated replanning fleet, pinned to the last bit.

Four closed-loop global queries replan every 30 s through the fleet
coordinator (the spec of
``tests/engine/test_per_shape_calls.py::test_replan_fleet_searches_once_per_new_view``).
Every replan runs the one-shot search against a residual view, so a
pricing-kernel change that moves one placement, one cost or one
recorded link changes the fleet summary or a query's planner counters.

Re-record on purpose only: the hysteresis and arbiter gate fixes of
ROADMAP item 1 change which relocations are installed, so they move
these values, and that change must re-record them with its reviewed
diff.
"""

import hashlib
import json

from repro.engine.config import Algorithm
from repro.fleet import FleetPolicy
from repro.workload import ClosedLoop, QueryClass, WorkloadSpec, run_workload

#: sha256 of the fleet summary (``WorkloadResult.fleet``, sorted-key JSON).
FLEET_SUMMARY_SHA256 = (
    "9f9dbb4c62c75ba506e6408c20b19d3133af8ed156a7fe9d9dddefd931385fc7"
)
#: Per query: (planner rounds, candidates priced, links queried).
PLANNER_COUNTERS = {
    "c0:0": (67, 800, 340),
    "c1:0": (97, 1020, 350),
    "c2:0": (69, 828, 350),
    "c3:0": (69, 828, 350),
}


def test_replanning_fleet_matches_its_golden():
    result = run_workload(
        WorkloadSpec(
            classes=(
                QueryClass(
                    name="global",
                    algorithm=Algorithm.GLOBAL,
                    overrides={"relocation_period": 30.0},
                ),
            ),
            num_clients=4,
            queries_per_client=1,
            arrivals=ClosedLoop(),
            seed=1998,
            num_servers=4,
            images_per_server=12,
            config_index=0,
            fleet=FleetPolicy(
                mode="coordinated", link_tokens=1.0, token_refill_seconds=600.0
            ),
        )
    )
    counters = {
        q.query_id: (
            q.metrics.planner_rounds,
            q.metrics.planner_candidates,
            q.metrics.planner_links_queried,
        )
        for q in result.queries
    }
    assert counters == PLANNER_COUNTERS
    summary = json.dumps(result.fleet, sort_keys=True).encode()
    assert hashlib.sha256(summary).hexdigest() == FLEET_SUMMARY_SHA256
