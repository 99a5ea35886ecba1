"""Task design specifications (§III-A).

"In SimDC platform, a task serves as the core operational unit ... Each
task is assigned a unique identifier (task_id) ... Users can simulate
multiple devices with varying performance levels within a single task, all
of which must execute the same computational process (operator flow)
uniformly ... A task allows simulated devices to repetitively execute the
same operator flow multiple times ... Each task can also be configured
with a 'scheduling priority' parameter."
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from numbers import Integral

from repro.cluster.resources import ResourceBundle
from repro.deviceflow.strategy import DispatchStrategy
from repro.ml.operators import OperatorFlow, standard_fl_flow
from repro.ml.optimizer import check_count, check_finite

_task_counter = itertools.count()


class TaskState(enum.Enum):
    """Lifecycle of a submitted task."""

    PENDING = "PENDING"
    QUEUED = "QUEUED"
    SCHEDULED = "SCHEDULED"
    RUNNING = "RUNNING"
    COMPLETED = "COMPLETED"
    FAILED = "FAILED"


@dataclass
class GradeRequirement:
    """One device grade's simulation demand within a task.

    Attributes
    ----------
    grade:
        Grade label; must have calibrated cost constants.
    n_devices:
        Total simulated devices of this grade (the paper's N_i).
    n_benchmark:
        Physical benchmarking devices reserved for measurement (q_i).
    bundles:
        Requested logical unit bundles (f_i).
    n_phones:
        Requested physical computing phones (m_i).
    device_cpus / device_memory_gb:
        Composite resource shape of one simulated device, kept as
        :attr:`device_bundle` (a :class:`ResourceBundle`; it determines k_i
        against the platform's unit bundle).
    """

    grade: str
    n_devices: int
    bundles: int = 0
    n_phones: int = 0
    n_benchmark: int = 0
    device_cpus: float = 1.0
    device_memory_gb: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.grade, str):
            raise ValueError(f"grade must be a string, got {self.grade!r}")
        try:
            self.device_bundle = ResourceBundle(cpus=self.device_cpus, memory_gb=self.device_memory_gb)
        except ValueError as exc:  # the bundle's cpus / memory_gb are this requirement's device_* fields
            raise ValueError(f"device_{exc}") from None
        check_count("n_devices", self.n_devices)
        for name in ("bundles", "n_phones", "n_benchmark"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < 0:
                raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
        if self.n_benchmark > self.n_devices:
            raise ValueError(f"n_benchmark must be within [0, n_devices={self.n_devices}], got {self.n_benchmark!r}")
        if self.n_devices - self.n_benchmark > 0 and self.bundles == 0 and self.n_phones == 0:
            raise ValueError(
                f"grade {self.grade!r} requests devices but no compute resources"
            )


@dataclass
class TaskSpec:
    """Everything needed to run one device-cloud collaboration task.

    Attributes
    ----------
    name:
        Human-readable task name (task_id is derived and unique).
    grades:
        Per-grade simulation demands.
    rounds:
        How many times each device repeats the operator flow.
    flow:
        The uniform operator flow (defaults to the standard FL round).
    priority:
        Scheduling priority; higher runs earlier when resources contend.
    deviceflow_strategy:
        Optional traffic-shaping strategy; ``None`` sends results straight
        to the cloud service.
    numeric:
        Whether flows execute real ML math (off for time-only sweeps).
    feature_dim:
        Model dimensionality for numeric tasks.
    dataset_seed:
        Seed for the task's synthetic federated dataset.
    records_per_device:
        Mean local shard size for generated data.
    skew:
        Optional label-skew config (see ``make_federated_ctr_data``).
    deadline_s:
        Optional per-round aggregation deadline (seconds from round
        start).  The round closes at the deadline with the partial fold
        over the updates that made it; late arrivals are dropped.
    """

    name: str
    grades: list[GradeRequirement]
    rounds: int = 1
    flow: OperatorFlow | None = None
    priority: int = 0
    deviceflow_strategy: DispatchStrategy | None = None
    numeric: bool = True
    feature_dim: int = 4096
    dataset_seed: int = 0
    records_per_device: int = 20
    skew: dict | None = None
    deadline_s: float | None = None
    task_id: str = field(default="", compare=False)
    state: TaskState = field(default=TaskState.PENDING, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {self.name!r}")
        if not isinstance(self.numeric, bool):  # a truthy string would run numeric FL
            raise ValueError(f"numeric must be true or false, got {self.numeric!r}")
        if not self.grades:
            raise ValueError("a task needs at least one grade requirement")
        names = [g.grade for g in self.grades]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate grades in task: {names}")
        if isinstance(self.priority, bool) or not isinstance(self.priority, Integral):
            raise ValueError(f"priority must be an integer, got {self.priority!r}")
        check_count("rounds", self.rounds)
        # A shard needs a record; dataset synthesis needs two to train on.
        floor, records = (2 if self.numeric else 1), self.records_per_device
        if isinstance(records, bool) or not isinstance(records, Integral) or records < floor:
            raise ValueError(
                f"records_per_device must be >= {floor} (numeric={self.numeric}) and an integer, got {records!r}"
            )
        check_count("feature_dim", self.feature_dim)
        if self.deadline_s is not None:
            if self.deadline_s <= 0:  # first: a file's string raises the TypeError it reports as not a number
                raise ValueError(f"deadline_s must be > 0, got {self.deadline_s!r}")
            check_finite("deadline_s", self.deadline_s)
        if not self.task_id:
            self.task_id = f"task-{next(_task_counter):05d}"
        if self.flow is None:
            self.flow = standard_fl_flow()

    @property
    def total_devices(self) -> int:
        """All simulated devices across grades."""
        return sum(g.n_devices for g in self.grades)

    @property
    def total_bundles_requested(self) -> int:
        """Logical unit bundles the task wants frozen."""
        return sum(g.bundles for g in self.grades)

    def phones_requested(self) -> dict[str, int]:
        """Per-grade phone demand (computing + benchmarking)."""
        return {g.grade: g.n_phones + g.n_benchmark for g in self.grades}
