"""Fleet-aware joint placement: coordinating concurrent queries.

PR 4 made concurrent queries genuinely contend for NICs and links, and
the overload layer (PR 8) reacts when the fleet melts down — but each
query's planner still optimized alone on the *shared* monitoring
estimates, so concurrent relocations thrashed the same hot links.  This
package is the proactive half: a :class:`FleetCoordinator` tracks the
active query set's link claims, and the :class:`FleetPlanner` family
wraps any per-query planner with residual (contention-adjusted)
bandwidth estimation plus a seeded, deterministic relocation-budget
arbiter, optionally biased toward the worst latency-to-SLO query
("fair" mode, optimizing the Jain index the fleet summary reports).

Layering: this package sits above :mod:`repro.placement` and below
:mod:`repro.workload` (which wires a coordinator into the engine when
``WorkloadSpec.fleet`` is set); it never imports the workload layer —
the metrics sink arrives duck-typed.

The two planner modes register with the placement registry as
``"fleet-coordinated"`` and ``"fleet-fair"``, so
:func:`repro.placement.planner_for` can build standalone instances
(each with a private single-query coordinator) for offline use.
"""

from repro.placement import register_planner
from repro.placement.global_planner import GlobalPlanner

from repro.fleet.coordinator import (
    FleetCoordinator,
    FleetPolicy,
    canonical_link,
    link_key,
    placement_links,
    runtime_links,
)
from repro.fleet.planner import FleetPlanner


def _fleet_factory(mode: str):
    def factory(tree, hosts, cost_model, *, server_replicas=None,
                grid_cache=None):
        inner = GlobalPlanner(tree, hosts, cost_model, server_replicas,
                              grid_cache)
        coordinator = FleetCoordinator(FleetPolicy(mode=mode))
        return FleetPlanner(inner, coordinator, "standalone")
    return factory


register_planner("fleet-coordinated", _fleet_factory("coordinated"))
register_planner("fleet-fair", _fleet_factory("fair"))

__all__ = [
    "FleetCoordinator",
    "FleetPlanner",
    "FleetPolicy",
    "canonical_link",
    "link_key",
    "placement_links",
    "runtime_links",
]
