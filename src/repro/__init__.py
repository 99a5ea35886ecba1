"""SimDC: a high-fidelity device simulation platform for device-cloud
collaborative computing.

Reproduction of *SimDC: A High-Fidelity Device Simulation Platform for
Device-Cloud Collaborative Computing* (ICDCS 2025).  The platform combines

* a **logical simulation tier** (a Ray-on-Kubernetes-like actor cluster)
  for cheap large-scale functional testing,
* a **device simulation tier** (virtual Android phones behind a simulated
  ADB, managed by PhoneMgr) yielding physical performance metrics —
  power, CPU, memory, bandwidth — during training,
* a **hybrid allocation optimizer** splitting each task's simulated
  devices across the tiers to minimise makespan, and
* **DeviceFlow**, a programmable traffic controller shaping edge→cloud
  message streams with threshold, time-point and rate-curve strategies
  plus dropout simulation.

Quickstart::

    from repro import SimDC, TaskSpec, GradeRequirement

    platform = SimDC()
    task = TaskSpec(
        name="demo",
        grades=[GradeRequirement(grade="High", n_devices=20, bundles=40,
                                 n_phones=2,
                                 device_cpus=4, device_memory_gb=12)],
        rounds=3,
        feature_dim=512,
    )
    platform.submit(task)
    platform.run_until_idle()
    print(platform.result(task.task_id).rounds[-1].test_accuracy)
"""

from repro.cluster.resources import NodeSpec, ResourceBundle
from repro.core.config import PlatformConfig
from repro.core.platform import SimDC
from repro.deviceflow.strategy import (
    RealTimeAccumulatedStrategy,
    TimeIntervalStrategy,
    TimePoint,
    TimePointStrategy,
)
from repro.scheduler.task import GradeRequirement, TaskSpec, TaskState

__version__ = "1.0.0"

__all__ = [
    "GradeRequirement",
    "NodeSpec",
    "PlatformConfig",
    "RealTimeAccumulatedStrategy",
    "ResourceBundle",
    "SimDC",
    "TaskSpec",
    "TaskState",
    "TimeIntervalStrategy",
    "TimePoint",
    "TimePointStrategy",
    "__version__",
]
