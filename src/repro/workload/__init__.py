"""repro.workload — concurrent multi-query workloads on a shared network.

The single-query engine answers "how fast is one combination query under
this placement algorithm?".  This package answers the fleet question:
N clients issuing queries — open- or closed-loop, with a heterogeneous
mix of planners and tree sizes — all contending for the same wide-area
links, NICs, monitoring substrate and fault timeline.

* :class:`WorkloadSpec` / :class:`QueryClass` — the declarative spec.
* :class:`OpenLoop` / :class:`ClosedLoop` — seeded arrival disciplines.
* :func:`run_workload` / :class:`WorkloadEngine` — execution.
* :func:`run_workload_sharded` — one fleet, client-hash sharded across
  processes with order-invariant :class:`MetricsSink` merges.
* :func:`fleet_from_trace` — rebuild the fleet summary from a trace.
* :class:`OverloadPolicy` / :class:`OverloadController` — fleet-level
  overload protection: admission control with seeded shedding, per-class
  deadlines and SLO targets, per-client retry budgets, and per-host
  circuit breakers that reroute to degraded plans under chaos.  All
  knobs default off, keeping unprotected runs bit-identical.
* :class:`FleetPolicy` / :class:`FleetCoordinator` (re-exported from
  :mod:`repro.fleet`) — fleet-aware joint planning: planners see
  contention-adjusted residual bandwidth and relocations pass through a
  deterministic per-link token-bucket arbiter (optionally
  SLO-fairness-biased).  ``WorkloadSpec.fleet=None`` keeps every query
  planning blindly, bit-identical to the pre-fleet engine.

Fleet metrics flow through one :class:`FleetMetrics` sink and one
summary schema (``workload_schema: 3``).  Fleets within
``WorkloadSpec.exact_metrics_threshold`` queries also keep per-query
records, which make the latency blocks exact; larger fleets read them
from quantile sketches in flat memory.

Every trace event of a workload run is tagged with its ``query_id``, so
a shared trace can be sliced per query
(:func:`repro.obs.summary.query_records`) and replayed bit-exactly.
"""

from repro.fleet import FleetCoordinator, FleetPolicy
from repro.workload.arrivals import (
    Arrivals,
    ClosedLoop,
    OpenLoop,
    arrival_rng,
    open_loop_times,
    think_seconds,
)
from repro.workload.engine import (
    QueryResult,
    ScheduledQuery,
    WorkloadEngine,
    WorkloadResult,
    build_schedule,
    run_workload,
)
from repro.workload.metrics import LATENCY_KEYS, WORKLOAD_SCHEMA, jain_index
from repro.workload.overload import OverloadController, OverloadPolicy
from repro.workload.sink import (
    DEFAULT_EXACT_THRESHOLD,
    ExactFleetMetrics,
    FleetMetrics,
    MetricsSink,
    QueryStats,
    StreamingFleetMetrics,
    client_index_of,
    fleet_from_trace,
    merge_sinks,
)
from repro.workload.sketch import OrderFreeSum, QuantileSketch
from repro.workload.spec import (
    QueryClass,
    WorkloadSpec,
    query_id_for,
)
from repro.workload.sweep import (
    run_workload_sharded,
    shard_clients,
    shard_of,
)

__all__ = [
    "FleetCoordinator",
    "FleetPolicy",
    "Arrivals",
    "ClosedLoop",
    "OpenLoop",
    "arrival_rng",
    "open_loop_times",
    "think_seconds",
    "QueryResult",
    "ScheduledQuery",
    "WorkloadEngine",
    "WorkloadResult",
    "build_schedule",
    "run_workload",
    "LATENCY_KEYS",
    "WORKLOAD_SCHEMA",
    "fleet_from_trace",
    "jain_index",
    "DEFAULT_EXACT_THRESHOLD",
    "ExactFleetMetrics",
    "FleetMetrics",
    "MetricsSink",
    "QueryStats",
    "StreamingFleetMetrics",
    "client_index_of",
    "merge_sinks",
    "OverloadController",
    "OverloadPolicy",
    "OrderFreeSum",
    "QuantileSketch",
    "QueryClass",
    "WorkloadSpec",
    "query_id_for",
    "run_workload_sharded",
    "shard_clients",
    "shard_of",
]
