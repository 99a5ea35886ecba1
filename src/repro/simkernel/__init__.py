"""Discrete-event simulation kernel underpinning the SimDC platform.

Every SimDC subsystem (the logical Ray-like cluster, the virtual phone
cluster, DeviceFlow, the cloud services and the task manager) advances a
single shared simulated clock owned by a :class:`Simulator`.  The kernel is
deliberately small: an event heap, generator-based processes, a vectorized
timeout pool, and named deterministic random streams.

Example
-------
>>> from repro.simkernel import Simulator, Timeout
>>> sim = Simulator()
>>> log = []
>>> def worker(name, delay):
...     yield Timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.process(worker("a", 2.0))
>>> _ = sim.process(worker("b", 1.0))
>>> final_time = sim.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from repro.simkernel.events import Event, EventQueue
from repro.simkernel.processes import AllOf, Process, ProcessError, Signal, Timeout
from repro.simkernel.random import RandomStreams, stable_hash
from repro.simkernel.simulator import Simulator
from repro.simkernel.timeout_pool import PooledTimeout, RecurringTimeout, TimeoutPool

__all__ = [
    "AllOf",
    "Event",
    "EventQueue",
    "PooledTimeout",
    "Process",
    "ProcessError",
    "RandomStreams",
    "RecurringTimeout",
    "Signal",
    "Simulator",
    "Timeout",
    "TimeoutPool",
    "stable_hash",
]
