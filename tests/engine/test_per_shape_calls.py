"""Call-count guards for per-run planning.

A run's queries of one shape share their tree and cost model, so
``CostModelArrays`` is built once per shape, not once per query; and
their planners of one stage (the initial one-shot search, or the
global controller's replans) share one search cache exactly when their
tree, cost model, host list and replicas agree.  Counting on a
small mixed fleet catches a change that builds either per query again,
or that lets planners of different replicas share a cache.

The cache's search memo makes a fleet's searches countable exactly: a
plan call searches (builds one ``BatchMoveEvaluator``) only when its
floored view differs from the last one searched from its start.  The
controller prices its hysteresis and validation checks over the same
cache, so it builds no placement state the searches did not.  Each plan
call reads one monitoring snapshot, and a snapshot builds a view only
when its viewer's cache changed since that viewer's last one.
"""

from repro.dataflow.cost import CostModelArrays
from repro.dataflow.critical import (
    BatchMoveEvaluator,
    _PlacementState,
    bandwidth_matrix,
    evaluator_hosts,
)
from repro.engine.config import Algorithm
from repro.fleet import FleetPolicy
from repro.monitor import system as monitor_system
from repro.monitor.system import MonitoringSystem
from repro.placement import OneShotPlanner
from repro.workload import ClosedLoop, QueryClass, WorkloadSpec, run_workload


def mixed_shapes_spec():
    """"plain" and "replicated" share a tree and cost model but not
    replicas; "big" has a cost model of its own."""
    return WorkloadSpec(
        classes=(
            QueryClass(name="plain", algorithm=Algorithm.GLOBAL),
            QueryClass(
                name="big",
                algorithm=Algorithm.GLOBAL,
                overrides={"mean_image_size": 256 * 1024.0},
            ),
            QueryClass(
                name="replicated",
                algorithm=Algorithm.ONE_SHOT,
                overrides={"replication_factor": 2},
            ),
        ),
        num_clients=4,
        queries_per_client=3,
        arrivals=ClosedLoop(think_time=5.0),
        seed=5,
        num_servers=4,
        images_per_server=4,
    )


def test_cost_model_arrays_built_once_per_shape(monkeypatch):
    built = []
    original_arrays = CostModelArrays.__init__

    def arrays_init(self, cost_model):
        built.append(cost_model)
        original_arrays(self, cost_model)

    monkeypatch.setattr(CostModelArrays, "__init__", arrays_init)
    planners = []
    original_planner = OneShotPlanner.__init__

    def planner_init(self, *args, **kwargs):
        original_planner(self, *args, **kwargs)
        planners.append(self)

    monkeypatch.setattr(OneShotPlanner, "__init__", planner_init)
    result = run_workload(mixed_shapes_spec())
    assert len(result.queries) == 12
    assert {q.class_name for q in result.queries} == {
        "plain",
        "big",
        "replicated",
    }

    # "plain" and "replicated" share a shape, "big" has its own.
    assert len(built) == len({id(model) for model in built}) == 2
    assert {id(p.cost_model) for p in planners} == {id(m) for m in built}

    # A search cache serves exactly the planners of one stage, tree,
    # cost model, host list and replica set.  The initial planners are
    # one-shot, the controllers global, so the name gives the stage.
    def shape(planner):
        return (
            planner.name,
            id(planner.cost_model),
            tuple(planner.hosts),
            tuple(sorted(planner.server_replicas.items())),
        )

    by_cache: dict[int, set] = {}
    by_shape: dict[tuple, set] = {}
    for planner in planners:
        by_cache.setdefault(id(planner._grid_cache), set()).add(shape(planner))
        by_shape.setdefault(shape(planner), set()).add(id(planner._grid_cache))
    assert all(len(shapes) == 1 for shapes in by_cache.values())
    assert all(len(caches) == 1 for caches in by_shape.values())
    assert len(by_cache) < len(result.queries)


#: Plan calls of the replanning fleet below, and the evaluators its
#: searches built when each planner memoized only its own last call.
REPLAN_FLEET_CALLS = 139
ONE_ENTRY_MEMO_BUILDS = 139
#: Placement states the fleet's searches build across both stages' caches.
REPLAN_FLEET_STATES = 9
#: Monitoring snapshots the fleet takes, and the views they build: a
#: snapshot reuses its viewer's last view while the viewer's cache
#: version and the host tuple are unchanged.
REPLAN_FLEET_SNAPSHOTS = 139
REPLAN_FLEET_VIEW_BUILDS = 35


def test_replan_fleet_searches_once_per_new_view(monkeypatch):
    """A search per (start, view) change, not one per query replanning."""
    built = []
    original_evaluator = BatchMoveEvaluator.__init__

    def evaluator_init(self, *args, **kwargs):
        built.append(1)
        original_evaluator(self, *args, **kwargs)

    monkeypatch.setattr(BatchMoveEvaluator, "__init__", evaluator_init)
    states = []
    original_build = _PlacementState.build.__func__

    def build(cls, arrays, hosts, items):
        states.append(items)
        return original_build(cls, arrays, hosts, items)

    monkeypatch.setattr(_PlacementState, "build", classmethod(build))
    calls = []
    last_view: dict[tuple, bytes] = {}
    original_search = OneShotPlanner._search

    def search(self, estimator, initial):
        hosts = evaluator_hosts(self.hosts, initial)
        view = bandwidth_matrix(
            hosts, estimator, self.cost_model.min_bandwidth
        ).tobytes()
        slot = (
            id(self._grid_cache),
            self.name,
            hosts,
            tuple(initial.assignment.items()),
        )
        calls.append(last_view.get(slot) != view)
        last_view[slot] = view
        return original_search(self, estimator, initial)

    monkeypatch.setattr(OneShotPlanner, "_search", search)
    snapshots = []
    original_snapshot = MonitoringSystem.snapshot

    def snapshot(self, viewer, hosts, now):
        snapshots.append(viewer)
        return original_snapshot(self, viewer, hosts, now)

    monkeypatch.setattr(MonitoringSystem, "snapshot", snapshot)
    views = []
    original_frozen = monitor_system.frozen_estimator

    def frozen_estimator(hosts, read):
        views.append(1)
        return original_frozen(hosts, read)

    monkeypatch.setattr(monitor_system, "frozen_estimator", frozen_estimator)
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
    assert result.fleet["completed"] == 4
    assert len(calls) == REPLAN_FLEET_CALLS
    assert len(built) == sum(calls)
    # 72 builds: the queries' replans share each other's searches.
    assert len(built) == 72 < ONE_ENTRY_MEMO_BUILDS
    assert len(states) == REPLAN_FLEET_STATES
    assert len(snapshots) == REPLAN_FLEET_SNAPSHOTS
    assert len(views) == REPLAN_FLEET_VIEW_BUILDS < REPLAN_FLEET_SNAPSHOTS
