"""Resource bundles and node specifications for the logical cluster."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ResourceBundle:
    """An indivisible resource grant, the paper's "unit resource bundle".

    §IV-B's example unit is ``{CPU: 1 core, memory: 1 GB}``; grades are
    simulated by composite bundles (e.g. the experiments give High devices
    4 CPUs + 12 GB and Low devices 1 CPU + 6 GB).
    """

    cpus: float = 1.0
    memory_gb: float = 1.0
    gpus: float = 0.0

    def __post_init__(self) -> None:
        for name in ("cpus", "memory_gb", "gpus"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:  # also false for NaN
                raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
        if self.cpus == 0 and self.memory_gb == 0 and self.gpus == 0:
            raise ValueError("bundle must request at least one resource")

    def units_relative_to(self, unit: ResourceBundle) -> int:
        """How many ``unit`` bundles this bundle consumes (the paper's k).

        The count is the max over resource dimensions, rounded up: a
        4-CPU/12-GB grade against a 1-CPU/1-GB unit costs 12 units.
        """
        ratios = []
        for mine, theirs in (
            (self.cpus, unit.cpus),
            (self.memory_gb, unit.memory_gb),
            (self.gpus, unit.gpus),
        ):
            if mine > 0:
                if theirs <= 0:
                    raise ValueError(f"unit bundle lacks a dimension required by {self}")
                ratios.append(mine / theirs)
        return max(1, math.ceil(max(ratios)))


@dataclass(frozen=True)
class NodeSpec:
    """Capacity of one Kubernetes worker node."""

    cpus: float
    memory_gb: float
    gpus: float = 0.0

    def __post_init__(self) -> None:
        if self.cpus <= 0 or self.memory_gb <= 0 or self.gpus < 0:
            raise ValueError(f"invalid node spec: {self}")


class WorkerNode:
    """A node with mutable free capacity.

    Allocation is first-fit at the granularity of whole bundles; the
    cluster owns placement policy, the node only tracks accounting.
    """

    def __init__(self, node_id: str, spec: NodeSpec) -> None:
        self.node_id = node_id
        self.spec = spec
        self.free_cpus = spec.cpus
        self.free_memory_gb = spec.memory_gb
        self.free_gpus = spec.gpus

    def can_fit(self, bundle: ResourceBundle) -> bool:
        """Whether current free capacity covers ``bundle``."""
        return (
            bundle.cpus <= self.free_cpus + 1e-9
            and bundle.memory_gb <= self.free_memory_gb + 1e-9
            and bundle.gpus <= self.free_gpus + 1e-9
        )

    def allocate(self, bundle: ResourceBundle) -> None:
        """Reserve ``bundle``; raises if it does not fit."""
        if not self.can_fit(bundle):
            raise RuntimeError(f"node {self.node_id} cannot fit {bundle}")
        self.free_cpus -= bundle.cpus
        self.free_memory_gb -= bundle.memory_gb
        self.free_gpus -= bundle.gpus

    def release(self, bundle: ResourceBundle) -> None:
        """Return a previously allocated bundle."""
        self.free_cpus += bundle.cpus
        self.free_memory_gb += bundle.memory_gb
        self.free_gpus += bundle.gpus
        if (
            self.free_cpus > self.spec.cpus + 1e-6
            or self.free_memory_gb > self.spec.memory_gb + 1e-6
            or self.free_gpus > self.spec.gpus + 1e-6
        ):
            raise RuntimeError(f"node {self.node_id} released more than allocated")

    @property
    def idle(self) -> bool:
        """True when nothing is allocated on the node."""
        return (
            abs(self.free_cpus - self.spec.cpus) < 1e-9
            and abs(self.free_memory_gb - self.spec.memory_gb) < 1e-9
            and abs(self.free_gpus - self.spec.gpus) < 1e-9
        )
