"""Combination trees, placements, cost model and critical-path analysis.

The unit the placement algorithms operate on is a **data-flow tree**
(:class:`~repro.dataflow.tree.CombinationTree`): servers are the leaves,
binary combination operators are the internal nodes and the client is the
root.  A :class:`~repro.dataflow.placement.Placement` maps every node to a
host (servers and the client are pinned; operators are free).  The
analytic cost model (:mod:`repro.dataflow.cost`) prices a placement as the
length of its **critical path** — the most expensive server-to-client path
under current bandwidth estimates — which is the objective all three
placement algorithms iteratively shorten.
"""

from repro.dataflow.tree import (
    CLIENT_ID,
    CombinationTree,
    TreeNode,
    complete_binary_tree,
    left_deep_tree,
)
from repro.dataflow.placement import Placement
from repro.dataflow.cost import CostModel, expected_output_sizes
from repro.dataflow.critical import CriticalPath, critical_path

__all__ = [
    "CLIENT_ID",
    "CombinationTree",
    "CostModel",
    "CriticalPath",
    "Placement",
    "TreeNode",
    "complete_binary_tree",
    "critical_path",
    "expected_output_sizes",
    "left_deep_tree",
]
