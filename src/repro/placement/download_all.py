"""The download-all base case: all operators at the client."""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.dataflow.cost import BandwidthEstimator, CostModel, RecordingEstimator
from repro.dataflow.critical import placement_cost
from repro.dataflow.placement import Placement
from repro.dataflow.tree import CombinationTree
from repro.obs.events import PLANNER_SEARCH
from repro.obs.tracer import ensure_tracer
from repro.placement.base import PlanResult


def download_all_placement(
    tree: CombinationTree,
    server_hosts: Mapping[str, str],
    client_host: str,
) -> Placement:
    """Every operator at the client (the paper's Figure 1 / base case)."""
    return Placement.all_at_client(tree, server_hosts, client_host)


class DownloadAllPlanner:
    """The base case as a :class:`~repro.placement.base.Planner`.

    Identity policy: the plan *is* the initial placement (all operators at
    the client), never revised.  ``plan`` prices it when a cost model is
    available so comparisons against the searching planners stay easy.
    """

    name = "download-all"

    def __init__(
        self,
        tree: CombinationTree,
        hosts: Sequence[str] = (),
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.tree = tree
        self.hosts = sorted(set(hosts))
        self.cost_model = cost_model

    def plan(
        self,
        estimator: BandwidthEstimator,
        initial: Placement,
        *,
        tracer=None,
        now: float = 0.0,
    ) -> PlanResult:
        """Return ``initial`` unchanged (priced if a cost model exists)."""
        recorder = RecordingEstimator(estimator)
        if self.cost_model is not None:
            cost = placement_cost(self.tree, initial, self.cost_model, recorder)
        else:
            cost = float("nan")
        tracer = ensure_tracer(tracer)
        if tracer.enabled:
            tracer.emit(
                PLANNER_SEARCH,
                now,
                {
                    "algorithm": self.name,
                    "rounds": 0,
                    "candidates": 0,
                    "links": len(recorder.queried),
                    "cost": cost,
                },
            )
        return PlanResult(
            placement=initial,
            cost=cost,
            rounds=0,
            candidates_evaluated=0,
            links_queried=frozenset(recorder.queried),
            algorithm=self.name,
        )
