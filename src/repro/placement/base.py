"""Shared plumbing for the placement planners.

The searching placement policies — one-shot, global, download-all and
their fleet wrappers — implement the :class:`Planner` protocol: a
``name`` and one uniform ``plan`` entry point taking a bandwidth
estimator and the placement to start from.  The engine
(``engine/simulation.py``, the controllers) dispatches through this
interface via :func:`repro.placement.planner_for` instead of
per-algorithm branches.  The local algorithm is distributed and has no
``plan``: its controller calls the per-operator ``decide`` of
:class:`~repro.placement.local_rules.LocalRulesPlanner` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol, runtime_checkable

from repro.dataflow.cost import BandwidthEstimator
from repro.dataflow.placement import Placement


@dataclass(frozen=True)
class PlanResult:
    """Outcome of one planning run."""

    placement: Placement
    #: Critical-path cost of the returned placement (model seconds/partition).
    cost: float
    #: Number of improvement rounds the iterative search performed.
    rounds: int
    #: Single-move candidates evaluated in total.
    candidates_evaluated: int
    #: Distinct host pairs whose bandwidth the search consulted.
    links_queried: frozenset[tuple[str, str]] = field(default_factory=frozenset)
    #: Name of the planner that produced this result.
    algorithm: str = ""
    #: Critical-path cost of the starting placement under the same view,
    #: when the search priced it anyway (None otherwise).
    start_cost: Optional[float] = None


@runtime_checkable
class Planner(Protocol):
    """The planning interface of the one-shot, global and download-all
    policies and their fleet wrappers.

    ``plan`` searches for a placement starting from ``initial`` using
    ``estimator`` for pairwise bandwidths.  ``tracer`` receives a
    ``planner.search`` event per invocation; ``now`` is the simulation
    time to stamp on emitted events.
    """

    name: str

    def plan(
        self,
        estimator: BandwidthEstimator,
        initial: Placement,
        *,
        tracer=None,
        now: float = 0.0,
    ) -> PlanResult: ...
