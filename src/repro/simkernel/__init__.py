"""Discrete-event simulation kernel underpinning the SimDC platform.

Every SimDC subsystem (the logical Ray-like cluster, the virtual phone
cluster, DeviceFlow, the cloud services and the task manager) advances a
single shared simulated clock owned by a :class:`Simulator`.  The kernel is
deliberately small: one event heap, generator-based processes, and named
deterministic random streams.  One deadline is one kernel event
(:meth:`Simulator.schedule_at`, withdrawn with :meth:`Simulator.cancel`;
:meth:`Simulator.schedule_recurring` re-arms one per tick).  The only other
scheduling structure is :class:`TimeoutPool`, which does the one thing a
per-event push cannot: it takes whole ascending deadline *arrays*
(``add_sequence``) and merges them behind a single sentinel event.

Ordering convention (what keeps a run a pure function of its inputs):
events fire by time, and events sharing a timestamp fire in the order they
were scheduled.  A pool's sentinel is such an event — scheduled when the
pool's earliest deadline was registered, or when the previous drain
re-armed it — and all of the pool's chunks due at that timestamp fire
together at the sentinel's position, ties between chunks in
chunk-insertion order.  A process's events are scheduled at fixed points
(its start at ``sim.process``, a ``Timeout`` at the ``yield``, its
waiters' wake-up when it finishes), so a chain of callbacks that
schedules at the same points — a ``Signal`` wakes waiters where a
finished process did — fires at the same instants in the same order.

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
from repro.simkernel.simulator import RecurringTimeout, Simulator
from repro.simkernel.timeout_pool import TimeoutPool

__all__ = [
    "AllOf",
    "Event",
    "EventQueue",
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
