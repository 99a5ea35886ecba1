"""Task management: queueing, scheduling, resources, hybrid allocation.

§III-B's Task Manager: a task queue feeding a greedy Task Scheduler that
weighs resource availability against scheduling priority, a Task Runner
that splits each task's simulated devices across the hybrid tiers via the
§IV-B integer program, and a Resource Manager overseeing the "querying,
freezing, and releasing of heterogeneous resources".
"""

from repro.scheduler.allocation import (
    AllocationProblem,
    AllocationResult,
    GradeAllocation,
    GradeAllocationParams,
    evaluate_allocation,
    fixed_ratio_allocation,
    solve_allocation,
)
from repro.scheduler.queue import TaskQueue
from repro.scheduler.resource_manager import ResourceManager, ResourceSnapshot
from repro.scheduler.task import GradeRequirement, TaskSpec, TaskState
from repro.scheduler.task_manager import TaskManager
from repro.scheduler.task_scheduler import GreedyTaskScheduler, SchedulingDecision
from repro.scheduler.task_runner import TaskResult, TaskRunner

__all__ = [
    "AllocationProblem",
    "AllocationResult",
    "GradeAllocation",
    "GradeAllocationParams",
    "GradeRequirement",
    "GreedyTaskScheduler",
    "ResourceManager",
    "ResourceSnapshot",
    "SchedulingDecision",
    "TaskManager",
    "TaskQueue",
    "TaskResult",
    "TaskRunner",
    "TaskSpec",
    "TaskState",
    "evaluate_allocation",
    "fixed_ratio_allocation",
    "solve_allocation",
]
