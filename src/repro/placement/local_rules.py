"""Pure decision rules of the distributed local algorithm (§2.3).

The run-time machinery (epoch wavefront, "later" marking, vector
propagation) lives in the engine; the two decisions themselves are pure
functions so they can be tested exhaustively:

* :func:`is_on_critical_path` — an operator decides it is on the critical
  path iff it was marked the "later" producer **more than half** the
  times it sent data during the epoch *and* its consumer is also on the
  critical path (the client, as root, always is).
* :func:`choose_local_site` — an operator on the critical path picks,
  among its producers' hosts, its consumer's host, its current host and
  ``k`` extra random hosts, the site minimizing the **local critical
  path**: the longest producer→operator→consumer chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.dataflow.cost import BandwidthEstimator, CostModel

# Unused here: the benchmark's traced pass wraps this module's ``placement_cost``.
from repro.dataflow.critical import placement_cost  # noqa: F401


def is_on_critical_path(
    later_marks: int, dispatch_count: int, consumer_on_critical_path: bool
) -> bool:
    """The operator's critical-path self-test at an epoch boundary."""
    if later_marks < 0 or dispatch_count < 0:
        raise ValueError("counts must be non-negative")
    if not consumer_on_critical_path:
        return False
    # Marks arrive with the consumer's *next* demand, so at an epoch
    # boundary the mark count can exceed the dispatch count by the
    # in-flight demand; count the straggler as a dispatch.
    effective_dispatches = max(dispatch_count, later_marks)
    return effective_dispatches > 0 and later_marks * 2 > effective_dispatches


@dataclass(frozen=True)
class LocalSiteDecision:
    """Outcome of a local placement evaluation."""

    best_site: str
    best_cost: float
    current_cost: float
    #: Cost of the local critical path at every candidate site evaluated.
    costs: Mapping[str, float]

    @property
    def should_move(self) -> bool:
        """True if the best site strictly beats the current one."""
        return self.best_cost < self.current_cost


def local_path_cost(
    site: str,
    producer_hosts: Sequence[str],
    producer_sizes: Sequence[float],
    consumer_host: str,
    output_size: float,
    estimator: BandwidthEstimator,
    startup_cost: float,
    compute_seconds: float = 0.0,
    min_bandwidth: float = 1.0,
) -> float:
    """Length of the local critical path with the operator at ``site``.

    The local critical path is "the longest path from either of its
    producers to its consumer": the slower input edge, plus the operator's
    own processing, plus the output edge.
    """
    if len(producer_hosts) != len(producer_sizes):
        raise ValueError("producer hosts/sizes length mismatch")

    def edge(a: str, b: str, size: float) -> float:
        if a == b:
            return 0.0
        bandwidth = max(estimator(a, b), min_bandwidth)
        return startup_cost + size / bandwidth

    inbound = max(
        edge(p_host, site, size)
        for p_host, size in zip(producer_hosts, producer_sizes)
    )
    outbound = edge(site, consumer_host, output_size)
    return inbound + compute_seconds + outbound


def choose_local_site(
    current_host: str,
    producer_hosts: Sequence[str],
    producer_sizes: Sequence[float],
    consumer_host: str,
    output_size: float,
    estimator: BandwidthEstimator,
    startup_cost: float,
    extra_candidates: Sequence[str] = (),
    compute_seconds: float = 0.0,
) -> LocalSiteDecision:
    """Evaluate candidate sites and pick the local-critical-path minimizer.

    Candidates are the producers' hosts, the consumer's host, the current
    host, plus ``extra_candidates`` (the paper's ``k`` randomly chosen
    additional locations, Figure 7).  Ties are broken toward the current
    host (no gratuitous move), then lexicographically for determinism.
    """
    candidates = sorted(
        set(producer_hosts) | {consumer_host, current_host} | set(extra_candidates)
    )
    costs = {
        site: local_path_cost(
            site,
            producer_hosts,
            producer_sizes,
            consumer_host,
            output_size,
            estimator,
            startup_cost,
            compute_seconds,
        )
        for site in candidates
    }
    current_cost = costs[current_host]
    best_site = current_host
    best_cost = current_cost
    for site in candidates:
        if costs[site] < best_cost:
            best_site = site
            best_cost = costs[site]
    return LocalSiteDecision(
        best_site=best_site,
        best_cost=best_cost,
        current_cost=current_cost,
        costs=costs,
    )


class LocalRulesPlanner:
    """The local algorithm's per-operator rule, as the engine dispatches it.

    :meth:`decide` is the entry point the engine's
    :class:`~repro.engine.controllers.LocalController` calls at each
    operator's epoch firing (the distributed setting: one decision per
    firing).  The local algorithm has no whole-tree ``plan``; the
    controller draws the ``k`` extra candidate sites.
    """

    name = "local"

    def __init__(self, cost_model: CostModel) -> None:
        self.cost_model = cost_model

    def decide(
        self,
        *,
        current_host: str,
        producer_hosts: Sequence[str],
        producer_sizes: Sequence[float],
        consumer_host: str,
        output_size: float,
        estimator: BandwidthEstimator,
        extra_candidates: Sequence[str] = (),
        compute_seconds: float = 0.0,
    ) -> LocalSiteDecision:
        """One operator's site decision (the controller's dispatch point)."""
        return choose_local_site(
            current_host=current_host,
            producer_hosts=producer_hosts,
            producer_sizes=producer_sizes,
            consumer_host=consumer_host,
            output_size=output_size,
            estimator=estimator,
            startup_cost=self.cost_model.startup_cost,
            extra_candidates=extra_candidates,
            compute_seconds=compute_seconds,
        )
