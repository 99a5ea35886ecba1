"""Generator-based processes and waitables.

A *process* is a Python generator driven by the :class:`~repro.simkernel
.simulator.Simulator`.  Each ``yield`` hands the simulator a *waitable*
describing what the process is waiting for:

``Timeout(dt)``
    Resume after ``dt`` units of simulated time.
``Signal``
    Resume when the signal fires; the fired value becomes the ``yield``
    expression's value.  Waiting on an already-fired signal resumes on the
    next event-loop step.
``Process``
    Resume when the child process finishes; its return value becomes the
    ``yield`` value.  If the child failed, the child's exception is raised
    inside the waiter.
``AllOf([...])``
    Barrier over other waitables.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Generator, Iterable
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.simkernel.simulator import Simulator


class ProcessError(RuntimeError):
    """An unhandled exception escaped a process that nobody was awaiting."""


class Waitable:
    """Base class for everything a process may ``yield``."""

    def subscribe(self, sim: Simulator, callback: Callable[[Any, BaseException | None], None]) -> None:
        """Arrange for ``callback(value, error)`` once the waitable resolves."""
        raise NotImplementedError


class Timeout(Waitable):
    """Resume the yielding process after ``delay`` simulated time units."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if not 0 <= delay < math.inf:  # also false for NaN
            raise ValueError(f"Timeout delay must be a finite number >= 0, got {delay!r}")
        self.delay = float(delay)

    def subscribe(self, sim: Simulator, callback: Callable[[Any, BaseException | None], None]) -> None:
        sim.schedule(self.delay, callback, None, None)


class Signal(Waitable):
    """A one-shot event that processes can wait on.

    A signal is fired at most once with an optional value.  Firing wakes
    every current waiter; later waiters resume immediately (on the next
    event-loop step) with the stored value.  ``fail`` resolves the signal
    with an exception instead, which is re-raised inside each waiter.
    """

    __slots__ = ("name", "_fired", "_value", "_error", "_waiters")

    def __init__(self, name: str) -> None:
        self.name = name
        self._fired = False
        self._value: Any = None
        self._error: BaseException | None = None
        self._waiters: list[tuple["Simulator", Callable[[Any, BaseException | None], None]]] = []

    @property
    def fired(self) -> bool:
        """Whether the signal has already been resolved."""
        return self._fired

    @property
    def value(self) -> Any:
        """Value the signal resolved with (``None`` until fired)."""
        return self._value

    @property
    def error(self) -> BaseException | None:
        """Exception the signal failed with, if any."""
        return self._error

    def fire(self, value: Any = None) -> None:
        """Resolve the signal successfully.  Firing twice is an error."""
        self._resolve(value, None)

    def fail(self, error: BaseException) -> None:
        """Resolve the signal with an exception."""
        self._resolve(None, error)

    def _resolve(self, value: Any, error: BaseException | None) -> None:
        if self._fired:
            raise RuntimeError(f"Signal {self.name!r} fired twice")
        self._fired = True
        self._value = value
        self._error = error
        waiters, self._waiters = self._waiters, []
        for sim, callback in waiters:
            sim.schedule(0.0, callback, value, error)

    def subscribe(self, sim: Simulator, callback: Callable[[Any, BaseException | None], None]) -> None:
        if self._fired:
            sim.schedule(0.0, callback, self._value, self._error)
        else:
            self._waiters.append((sim, callback))


class Process(Waitable):
    """A running generator, itself waitable by other processes."""

    __slots__ = ("sim", "name", "_generator", "_done", "_result", "_error", "_waiters")

    def __init__(self, sim: Simulator, generator: Generator, name: str = "") -> None:
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._done = False
        self._result: Any = None
        self._error: BaseException | None = None
        self._waiters: list[Callable[[Any, BaseException | None], None]] = []

    @property
    def done(self) -> bool:
        """Whether the generator has finished (normally or with an error)."""
        return self._done

    @property
    def result(self) -> Any:
        """Return value of the generator (``None`` until done)."""
        return self._result

    @property
    def error(self) -> BaseException | None:
        """Exception that terminated the process, if any."""
        return self._error

    def _advance(self, value: Any, error: BaseException | None) -> None:
        if self._done:
            return
        try:
            target = (
                self._generator.throw(error)
                if error is not None
                else self._generator.send(value)
            )
            self._wait_on(target)
        except StopIteration as stop:
            self._finish(stop.value, None)
        except BaseException as exc:  # noqa: BLE001 - must capture to deliver to waiters
            self._finish(None, exc)

    def _wait_on(self, target: Any) -> None:
        if not isinstance(target, Waitable):
            raise TypeError(
                f"Process {self.name!r} yielded {target!r}; processes must yield "
                "Timeout, Signal, Process or AllOf"
            )
        target.subscribe(self.sim, self._advance)

    def _finish(self, result: Any, error: BaseException | None) -> None:
        self._done = True
        self._result = result
        self._error = error
        waiters, self._waiters = self._waiters, []
        for callback in waiters:
            self.sim.schedule(0.0, callback, result, error)
        if error is not None and not waiters:
            self.sim._report_orphan_failure(self.name, error)

    def subscribe(self, sim: Simulator, callback: Callable[[Any, BaseException | None], None]) -> None:
        if self._done:
            sim.schedule(0.0, callback, self._result, self._error)
        else:
            self._waiters.append(callback)


class AllOf(Waitable):
    """Resolve when every child waitable has resolved.

    The waiter receives the list of child values in input order.  The first
    child error (in resolution order) is raised in the waiter instead.
    """

    def __init__(self, children: Iterable[Waitable]) -> None:
        self.children = list(children)

    def subscribe(self, sim: Simulator, callback: Callable[[Any, BaseException | None], None]) -> None:
        if not self.children:
            sim.schedule(0.0, callback, [], None)
            return
        results: list[Any] = [None] * len(self.children)
        state = {"remaining": len(self.children), "failed": False}

        def make_child_callback(index: int) -> Callable[[Any, BaseException | None], None]:
            def child_done(value: Any, error: BaseException | None) -> None:
                if state["failed"]:
                    return
                if error is not None:
                    state["failed"] = True
                    callback(None, error)
                    return
                results[index] = value
                state["remaining"] -= 1
                if state["remaining"] == 0:
                    callback(results, None)

            return child_done

        for i, child in enumerate(self.children):
            child.subscribe(sim, make_child_callback(i))
