"""Discrete-event simulation kernel.

This package is a from-scratch, process-oriented discrete-event simulation
(DES) kernel in the style of CSIM.  The paper's evaluation was built on
CSIM, a commercial C library; this package is the substitute substrate,
cut down to what the simulator uses.

The programming model:

* An :class:`~repro.sim.core.Environment` owns the simulation clock and the
  event calendar.
* A *process* is a Python generator function that yields
  :class:`~repro.sim.events.Event` objects; the process is suspended until
  the yielded event fires.
* :class:`~repro.sim.events.Timeout` models the passage of simulated time;
  :class:`~repro.sim.events.AllOf` / :class:`~repro.sim.events.AnyOf`
  wait on several events at once.
* :class:`~repro.sim.events.Callback` (via
  :meth:`~repro.sim.core.Environment.schedule_callback`) runs a function
  at a simulated time without a process; the network's transfers use it.
* :class:`~repro.sim.resources.Resource` models a contended FIFO facility
  (each host's disk and CPU).
* The per-actor message queues, where barrier messages get priority, are
  :class:`repro.net.host.Mailbox`; their gets are
  :class:`~repro.sim.events.StoreGet` events.

Determinism: ties in the event calendar are broken by scheduling order, so a
simulation with a fixed RNG seed is exactly reproducible.
"""

from repro.sim.core import Environment, Process
from repro.sim.errors import SimulationError, StopSimulation
from repro.sim.events import NORMAL, URGENT, AllOf, AnyOf, Callback, Event, Timeout
from repro.sim.resources import Resource

__all__ = [
    "AllOf",
    "AnyOf",
    "Callback",
    "Environment",
    "Event",
    "NORMAL",
    "Process",
    "Resource",
    "SimulationError",
    "StopSimulation",
    "Timeout",
    "URGENT",
]
