"""The global on-line planner (§2.2).

"This algorithm uses the one-shot algorithm as a procedure to compute new
placements; the only modification is in the initialization step where the
*current placement* is used as the initial placement."  The client runs it
periodically; the engine's barrier protocol installs the results.
"""

from __future__ import annotations

from repro.placement.one_shot import OneShotPlanner


class GlobalPlanner(OneShotPlanner):
    """Periodic re-planning warm-started from the running placement.

    The search is :class:`OneShotPlanner`'s; the engine hands ``plan``
    the *current* placement as ``initial``, and results and
    ``planner.search`` events carry the name ``"global"``.
    """

    name = "global"
