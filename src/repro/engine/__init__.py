"""The demand-driven execution engine (the paper's simulated system).

This package wires everything together into a running simulation:

* **Actors** (:mod:`repro.engine.actors`) — one process per tree node.
  Servers read images from disk and serve demands; operators compose
  inputs, hold their output until demanded, and *relocate themselves*
  inside the light-move window (after dispatching output, before
  requesting new inputs); the client demands partitions and records
  arrival times.
* **Controllers** (:mod:`repro.engine.controllers`) — the on-line
  machinery: the global algorithm's periodic re-planning plus the barrier
  change-over protocol (§2.2), and the local algorithm's staggered epoch
  wavefront with "later"-mark critical-path detection (§2.3).
* **Runtime** (:mod:`repro.engine.runtime`) — shared state: message
  plumbing with per-host location/timestamp vectors, relocation
  mechanics, barrier bookkeeping and metrics.
* **Simulation facade** (:mod:`repro.engine.simulation`) — build and run
  one complete experiment from a :class:`~repro.engine.config.SimulationSpec`.
"""

from repro.engine.config import Algorithm, SimulationSpec
from repro.engine.simulation import build_simulation, run_simulation
from repro.obs.metrics import RunMetrics

__all__ = [
    "Algorithm",
    "RunMetrics",
    "SimulationSpec",
    "build_simulation",
    "run_simulation",
]
