"""Discrete-event simulation kernel.

This package is a from-scratch, process-oriented discrete-event simulation
(DES) kernel in the style of CSIM / SimPy.  The paper's evaluation was built
on CSIM, a commercial C library; this package is the substitute substrate.

The programming model:

* An :class:`~repro.sim.core.Environment` owns the simulation clock and the
  event calendar.
* A *process* is a Python generator function that yields
  :class:`~repro.sim.events.Event` objects; the process is suspended until
  the yielded event fires.
* :class:`~repro.sim.events.Timeout` models the passage of simulated time.
* :class:`~repro.sim.resources.Resource` and
  :class:`~repro.sim.resources.PriorityResource` model contended facilities
  (the paper's single network interface per host, the disk, the CPU).
* :class:`~repro.sim.stores.Store` and
  :class:`~repro.sim.stores.PriorityStore` model generic producer/consumer
  queues.  (The paper's per-actor message queues, where barrier messages
  get priority, are :class:`repro.net.host.Mailbox`.)

Determinism: ties in the event calendar are broken by scheduling order, so a
simulation with a fixed RNG seed is exactly reproducible.
"""

from repro.sim.core import Environment, Process
from repro.sim.errors import Interrupt, SimulationError, StopSimulation
from repro.sim.events import NORMAL, URGENT, AllOf, AnyOf, Callback, Event, Timeout
from repro.sim.resources import PriorityResource, Resource
from repro.sim.stores import FilterStore, PriorityStore, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Callback",
    "Environment",
    "Event",
    "FilterStore",
    "Interrupt",
    "NORMAL",
    "PriorityResource",
    "PriorityStore",
    "Process",
    "Resource",
    "SimulationError",
    "StopSimulation",
    "Store",
    "Timeout",
    "URGENT",
]
