"""The Task Manager: queue, scheduling passes, and task lifecycle.

§III-B: "A micro-service responsible for the maintenance of Task Queue,
task submission, and status monitoring.  Task Manager periodically selects
suitable submitted tasks from the Task Queue for scheduling."  A pass is a
function of the queue and free capacity only, so a periodic one could only
decide differently after one of them grew — and every growth already runs
a pass: a submission, a task's completion or failure, and
:meth:`TaskManager.notify_resources_changed` (autoscaling, a recovered
phone).  So passes run on those events, never on a timer.
"""

from __future__ import annotations

from collections.abc import Callable, Generator

from repro.cloud.monitor import Monitor
from repro.scheduler.queue import TaskQueue
from repro.scheduler.resource_manager import ResourceManager
from repro.scheduler.task import TaskSpec, TaskState
from repro.scheduler.task_runner import TaskResult, TaskRunner
from repro.scheduler.task_scheduler import GreedyTaskScheduler
from repro.simkernel import Simulator


class TaskManager:
    """Coordinates queueing, greedy scheduling and concurrent execution.

    Nothing polls: code that grows capacity (``ResourceManager.scale_up`` /
    ``add_phones``) then calls :meth:`notify_resources_changed`.

    Parameters
    ----------
    sim:
        Shared simulator.
    resource_manager:
        Capacity accounting for freeze/release.
    runner_factory:
        ``spec -> TaskRunner``; the platform supplies a closure wiring the
        shared substrates (the Task Runner "supports multi-threaded
        concurrent processing" — here, concurrent simulation processes).
    monitor:
        The platform's event log.
    """

    def __init__(
        self,
        sim: Simulator,
        resource_manager: ResourceManager,
        runner_factory: Callable[[TaskSpec], TaskRunner],
        monitor: Monitor,
    ) -> None:
        self.sim = sim
        self.resource_manager = resource_manager
        self.runner_factory = runner_factory
        self.monitor = monitor
        self.queue = TaskQueue()
        self.scheduler = GreedyTaskScheduler()
        self.results: dict[str, TaskResult] = {}
        self.running: dict[str, TaskRunner] = {}
        self._deferred = 0
        #: True when nothing is queued, running, or awaiting arrival: a plain
        #: attribute, set where a task is queued, deferred or ends.
        self.all_idle = True

    # ------------------------------------------------------------------
    def submit(self, spec: TaskSpec) -> TaskSpec:
        """Queue a task and trigger an immediate scheduling pass."""
        self.queue.submit(spec)
        self.all_idle = False
        self.monitor.log("task_submitted", task_id=spec.task_id, priority=spec.priority)
        self._schedule_pass()
        return spec

    def submit_at(self, spec: TaskSpec, time: float) -> TaskSpec:
        """Schedule a future submission as a simulator event.

        The task enters the queue (and triggers a scheduling pass) when
        the clock reaches ``time``; until then it counts against
        :attr:`all_idle`, so ``run_until_idle`` drives a scenario through
        submissions that have not arrived yet.
        """
        if time < self.sim.now:
            raise ValueError(f"cannot submit in the past: {time!r} < now {self.sim.now!r}")
        self._deferred += 1
        self.all_idle = False
        self.monitor.log("task_deferred", task_id=spec.task_id, submit_at=time)
        self.sim.schedule_at(time, self._submit_deferred, spec)
        return spec

    def _submit_deferred(self, spec: TaskSpec) -> None:
        self._deferred -= 1
        self.submit(spec)

    @property
    def pending_submissions(self) -> int:
        """Deferred submissions whose arrival time has not been reached."""
        return self._deferred

    def notify_resources_changed(self) -> None:
        """Capacity grew outside a task's lifecycle (scaling, recovery): retry queued tasks."""
        self._schedule_pass()

    @property
    def active_tasks(self) -> int:
        """Tasks currently executing."""
        return len(self.running)

    def result_of(self, task_id: str) -> TaskResult:
        """Result of a finished task."""
        if task_id not in self.results:
            raise KeyError(f"task {task_id!r} has not finished")
        return self.results[task_id]

    # ------------------------------------------------------------------
    def _schedule_pass(self) -> None:
        decision = self.scheduler.plan(self.queue, self.resource_manager.snapshot())
        for spec in decision.scheduled:
            self.queue.remove(spec.task_id)
            self.resource_manager.freeze(spec)
            spec.state = TaskState.SCHEDULED
            runner = self.runner_factory(spec)
            self.running[spec.task_id] = runner
            self.monitor.log("task_scheduled", task_id=spec.task_id)
            self.sim.process(self._supervise(spec, runner), name=f"supervise.{spec.task_id}")

    def _supervise(self, spec: TaskSpec, runner: TaskRunner) -> Generator:
        try:
            result = yield self.sim.process(runner.run(), name=f"run.{spec.task_id}")
        except Exception:
            result = runner.result  # populated by the runner's handler
        finally:
            self.resource_manager.release(spec.task_id)
            del self.running[spec.task_id]
            self.all_idle = not self.queue and not self.running and self._deferred == 0
        if result is not None:
            self.results[spec.task_id] = result
        # Freed resources may unblock queued work immediately.
        self._schedule_pass()
